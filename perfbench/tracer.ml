(* Host-time spans recorded around the benchmark's calls into the
   program, for the traced run only.

   Each lane belongs to one router (one cluster member), so fibers of
   different members running on different domains never share a lane.
   Every completed span adds to its layer's total; one span in
   [sample_every] is also kept as a record (name, start, end, parent
   span, packet id) and written out when the run ends.  A span during
   which its fiber truly suspended is counted as interrupted and left
   out of the totals, so one fiber's time is never charged to another
   (see [watched]). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let gen = 0
let inject = 1
let process = 2
let classify = 3
let n_layers = 4

let names =
  [| "workload.gen"; "ixp.inject"; "core.process"; "forwarders.classify" |]

let sample_every = 64
let capacity = 1 lsl 15

type lane = {
  total : int array;
  count : int array;
  interrupted : int array;
  r_id : int array;
  r_layer : int array;
  r_start : int array;
  r_stop : int array;
  r_parent : int array;
  r_pkt : int array;
  mutable n_rec : int;
  mutable seq : int;
  mutable open_span : int;
      (* id of the enclosing process span while one runs, else -1 *)
  mutable child_ns : int;  (* time its completed children took *)
}

let lane () =
  {
    total = Array.make n_layers 0;
    count = Array.make n_layers 0;
    interrupted = Array.make n_layers 0;
    r_id = Array.make capacity 0;
    r_layer = Array.make capacity 0;
    r_start = Array.make capacity 0;
    r_stop = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_pkt = Array.make capacity 0;
    n_rec = 0;
    seq = 0;
    open_span = -1;
    child_ns = 0;
  }

(* A packet's identifier: its pool slot and recycle generation, which
   together name one packet for its whole life in the router. *)
let pkt_id (f : Packet.Frame.t) =
  (f.Packet.Frame.pool_slot lsl 24) lor (f.Packet.Frame.pool_gen land 0xFFFFFF)

(* A fresh span id, taken when the span opens so that children can
   name their parent before it closes. *)
let open_id l =
  let id = l.seq in
  l.seq <- id + 1;
  id

(* Run [f] under an effect handler that forwards every effect and notes
   that one passed.  Sim.Engine performs an effect for every real
   suspension (a wait it cannot elide, a park, a suspend) and none for a
   wait it elides or a clock read inside a running engine, so a span
   that saw an effect is one its fiber left.  (The one other effect the
   engine has, [spawn_here], is counted as a suspension too; none of the
   wrapped calls makes it.)  The clock is read inside the handler, so
   installing it is not charged to the span.  Returns [f]'s value, the
   start and end times and whether an effect passed. *)
let watched f =
  let start = ref 0 and stop = ref 0 and suspended = ref false in
  let v =
    Effect.Deep.match_with
      (fun () ->
        start := now_ns ();
        let v = f () in
        stop := now_ns ();
        v)
      ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type b) (_ : b Effect.t) ->
            suspended := true;
            None);
      }
  in
  (v, !start, !stop, !suspended)

(* Close a span; its layer is charged its self time (the duration less
   [child]).  Returns the duration, or 0 for an interrupted span. *)
let close l layer ~id ~start ~stop ~child ~parent ~pkt ~interrupted =
  if interrupted then begin
    l.interrupted.(layer) <- l.interrupted.(layer) + 1;
    0
  end
  else begin
    l.total.(layer) <- l.total.(layer) + (stop - start - child);
    l.count.(layer) <- l.count.(layer) + 1;
    if id mod sample_every = 0 && l.n_rec < capacity then begin
      let i = l.n_rec in
      l.r_id.(i) <- id;
      l.r_layer.(i) <- layer;
      l.r_start.(i) <- start;
      l.r_stop.(i) <- stop;
      l.r_parent.(i) <- parent;
      l.r_pkt.(i) <- pkt;
      l.n_rec <- i + 1
    end;
    stop - start
  end

(* Write the sampled spans as tab-separated lines: lane, span id, span
   name, start ns, end ns, parent span id (-1 = none), packet id. *)
let write path lanes =
  let oc = open_out path in
  output_string oc "lane\tid\tspan\tstart_ns\tend_ns\tparent\tpkt\n";
  Array.iteri
    (fun li l ->
      for i = 0 to l.n_rec - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" li l.r_id.(i)
          names.(l.r_layer.(i)) l.r_start.(i) l.r_stop.(i) l.r_parent.(i) l.r_pkt.(i)
      done)
    lanes;
  close_out oc
