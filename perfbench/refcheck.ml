(* Reference computations the benchmark checks the router against.

   Everything here is written apart from the program: an RFC 1071
   header sum, a longest-prefix match over the benchmark's own copy of
   the route set, and a multi-field rule matcher over the benchmark's
   own copy of the rule list.  [selftest] compares each against brute
   force (or a published test vector) before any workload runs. *)

module C = Forwarders.Classifier

(* ---- RFC 1071 ------------------------------------------------------- *)

(* One's-complement sum of 16-bit big-endian words, folded to 16 bits. *)
let ones_sum b ~off ~len =
  let s = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    s := !s + Bytes.get_uint16_be b (off + !i);
    i := !i + 2
  done;
  if len land 1 = 1 then s := !s + (Bytes.get_uint8 b (off + len - 1) lsl 8);
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

(* A header verifies when its words, checksum included, sum to 0xFFFF. *)
let header_ok b ~off ~len = ones_sum b ~off ~len = 0xFFFF

(* ---- Longest-prefix match ------------------------------------------ *)

let mask len = if len = 0 then 0 else (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF

let covers ~addr ~len d = d land mask len = addr

(* The route set as 33 exact-match tables, one per prefix length:
   a lookup probes from /32 down to /0. *)
module Lpm = struct
  type t = (int, int) Hashtbl.t array

  let create () = Array.init 33 (fun _ -> Hashtbl.create 64)
  let set t ~addr ~len port = Hashtbl.replace t.(len) (addr land mask len) port
  let remove t ~addr ~len = Hashtbl.remove t.(len) (addr land mask len)
  let find t ~addr ~len = Hashtbl.find_opt t.(len) (addr land mask len)

  let lookup t d =
    let rec go len =
      if len < 0 then None
      else
        match Hashtbl.find_opt t.(len) (d land mask len) with
        | Some p -> Some p
        | None -> go (len - 1)
    in
    go 32
end

let brute_lpm routes d =
  List.fold_left
    (fun best (addr, len, port) ->
      if covers ~addr ~len d then
        match best with
        | Some (bl, _) when bl >= len -> best
        | _ -> Some (len, port)
      else best)
    None routes
  |> Option.map snd

(* ---- Multi-field rules --------------------------------------------- *)

type key = { src : int; dst : int; sport : int; dport : int; proto : int; dscp : int }

let a32 (a : int32) = Int32.to_int a land 0xFFFFFFFF

let opt_ok o v = match o with None -> true | Some x -> x = v

let rule_matches (r : C.rule) k =
  covers ~addr:(a32 r.C.src) ~len:r.C.src_len k.src
  && covers ~addr:(a32 r.C.dst) ~len:r.C.dst_len k.dst
  && opt_ok r.C.src_port k.sport
  && opt_ok r.C.dst_port k.dport
  && opt_ok r.C.proto k.proto
  && opt_ok r.C.dscp k.dscp

(* The documented winner order: lower priority value first, then more
   matched bits, then the rule's content as a tie-break that does not
   depend on insertion order. *)
let specificity (r : C.rule) =
  let b o w = match o with Some _ -> w | None -> 0 in
  r.C.src_len + r.C.dst_len + b r.C.src_port 16 + b r.C.dst_port 16
  + b r.C.proto 8 + b r.C.dscp 6

let better (a : C.rule) (b : C.rule) =
  if a.C.prio <> b.C.prio then a.C.prio < b.C.prio
  else
    let sa = specificity a and sb = specificity b in
    if sa <> sb then sa > sb else Stdlib.compare a b < 0

let best_of rules k =
  List.fold_left
    (fun acc r ->
      if rule_matches r k then
        match acc with Some b when better b r -> acc | _ -> Some r
      else acc)
    None rules

(* The benchmark's rule list, grouped by the pair of prefix lengths and
   then by the masked address pair, each bucket kept in winner order:
   a lookup takes the first matching rule of every bucket the key falls
   in and keeps the best of those. *)
module Rules = struct
  type t = (int * int, (int * int, C.rule list) Hashtbl.t) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let bucket_key (r : C.rule) =
    ( a32 r.C.src land mask r.C.src_len,
      a32 r.C.dst land mask r.C.dst_len )

  let fold_buckets t k f acc =
    Hashtbl.fold
      (fun (sl, dl) tbl acc ->
        match Hashtbl.find_opt tbl (k.src land mask sl, k.dst land mask dl) with
        | Some rules -> f rules acc
        | None -> acc)
      t acc

  let lookup t k =
    fold_buckets t k
      (fun rules acc ->
        match List.find_opt (fun r -> rule_matches r k) rules with
        | Some r -> (
            match acc with Some b when better b r -> acc | _ -> Some r)
        | None -> acc)
      None

  let matching t k =
    fold_buckets t k (fun rules acc -> List.filter (fun r -> rule_matches r k) rules @ acc) []

  let group t (r : C.rule) =
    let g = (r.C.src_len, r.C.dst_len) in
    match Hashtbl.find_opt t g with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 64 in
        Hashtbl.add t g tbl;
        tbl

  let add t r =
    let tbl = group t r and bk = bucket_key r in
    let rules = Option.value ~default:[] (Hashtbl.find_opt tbl bk) in
    if not (List.mem r rules) then begin
      let rec ins = function
        | x :: rest when better x r -> x :: ins rest
        | l -> r :: l
      in
      Hashtbl.replace tbl bk (ins rules)
    end

  let remove t r =
    let tbl = group t r and bk = bucket_key r in
    let rules = Option.value ~default:[] (Hashtbl.find_opt tbl bk) in
    if List.mem r rules then begin
      Hashtbl.replace tbl bk (List.filter (fun x -> x <> r) rules);
      true
    end
    else false
end

(* ---- Self-tests ----------------------------------------------------- *)

let selftest () =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  (* RFC 1071 section 3's worked example: 00 01 f2 03 f4 f5 f6 f7 sums
     to ddf2.  A real IPv4 header (the RFC 791 example often used in
     textbooks) carries checksum b861 and must verify. *)
  let v = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  if ones_sum v ~off:0 ~len:8 <> 0xddf2 then fail "rfc1071 example sum";
  let h =
    Bytes.of_string
      "\x45\x00\x00\x73\x00\x00\x40\x00\x40\x11\xb8\x61\xc0\xa8\x00\x01\xc0\xa8\x00\xc7"
  in
  if not (header_ok h ~off:0 ~len:20) then fail "ipv4 example header";
  Bytes.set_uint8 h 8 0x3f;
  if header_ok h ~off:0 ~len:20 then fail "ipv4 damaged header verified";
  let rng = Random.State.make [| 7 |] in
  let rint n = Random.State.int rng n in
  (* LPM against a linear scan, on small random tables whose prefixes
     nest inside a few /8s so that lookups hit several lengths. *)
  for _ = 1 to 200 do
    let t = Lpm.create () in
    let routes = ref [] in
    let rand_addr () = ((10 + rint 3) lsl 24) lor rint 0x1000000 in
    for _ = 1 to 1 + rint 40 do
      let len = rint 33 and addr = rand_addr () and port = rint 8 in
      let addr = addr land mask len in
      routes := (addr, len, port) :: List.filter (fun (a, l, _) -> not (a = addr && l = len)) !routes;
      Lpm.set t ~addr ~len port
    done;
    for _ = 1 to rint 10 do
      match !routes with
      | [] -> ()
      | rs ->
          let addr, len, _ = List.nth rs (rint (List.length rs)) in
          routes := List.filter (fun (a, l, _) -> not (a = addr && l = len)) rs;
          Lpm.remove t ~addr ~len
    done;
    for _ = 1 to 50 do
      let d = rand_addr () in
      if Lpm.lookup t d <> brute_lpm !routes d then fail "lpm differs from brute force"
    done
  done;
  (* The bucketed rule matcher, kept under random adds and removes,
     against a scan of the whole list. *)
  let gen_rule () =
    let pre () =
      let len = [| 0; 8; 16; 24; 32 |].(rint 5) in
      (Int32.of_int ((10 lsl 24) lor (rint 4 lsl 16) lor rint 4), len)
    in
    let o p f = if rint 100 < p then Some (f ()) else None in
    C.rule ~prio:(rint 4) ~src:(pre ()) ~dst:(pre ())
      ?src_port:(o 20 (fun () -> rint 3))
      ?dst_port:(o 30 (fun () -> rint 3))
      ?proto:(o 30 (fun () -> [| 6; 17 |].(rint 2)))
      ?dscp:(o 20 (fun () -> rint 2 lsl 3))
      [| C.Accept; C.Drop; C.Mark 5 |].(rint 3)
  in
  let gen_key () =
    {
      src = (10 lsl 24) lor (rint 4 lsl 16) lor rint 4;
      dst = (10 lsl 24) lor (rint 4 lsl 16) lor rint 4;
      sport = rint 3;
      dport = rint 3;
      proto = [| 6; 17 |].(rint 2);
      dscp = rint 2 lsl 3;
    }
  in
  for _ = 1 to 100 do
    let t = Rules.create () in
    let list = ref [] in
    let keys = List.init 30 (fun _ -> gen_key ()) in
    for _ = 1 to 60 do
      (if rint 3 = 0 && !list <> [] then begin
         let r = List.nth !list (rint (List.length !list)) in
         list := List.filter (fun x -> x <> r) !list;
         if not (Rules.remove t r) then fail "rule remove refused"
       end
       else
         let r = gen_rule () in
         if not (List.mem r !list) then list := r :: !list;
         Rules.add t r);
      List.iter
        (fun k ->
          if Rules.lookup t k <> best_of !list k then fail "rule matcher differs from brute force")
        keys
    done
  done;
  List.sort_uniq compare !fails
