(* Runner for the [par] bench group.

   Every configuration is validated against the sequential engine's
   fingerprint before its record is emitted, so a timing record with
   "ok": false flags a correctness bug, not just a slow run. Timings
   here are machine-dependent (they scale with the core count), which
   is why the gate group never includes this one. *)

module Runtime = Ic_par.Runtime
module Payload = Ic_par.Payload

let now = Ic_prof.Monotonic.now

let order_name = function
  | Runtime.Steal -> "steal"
  | Runtime.Ic_priority -> "ic"

(* (family, size, spin_us): sizes chosen so the full sweep stays in the
   hundreds-of-ms range per configuration on a laptop core *)
let cases ~quick =
  if quick then
    [ ("wavefront", 24, 20.0); ("matmul", 5, 0.0); ("quadrature", 9, 50.0) ]
  else
    [
      ("wavefront", 40, 20.0);
      ("matmul", 6, 0.0);
      ("quadrature", 10, 50.0);
      ("fft", 8, 50.0);
    ]

let domain_counts ~quick = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ]
let orders = [ Runtime.Steal; Runtime.Ic_priority ]

let bench_payload ~emit ~quick (family, size, spin_us) =
  let p = Payload.make ~spin_us ~family ~size () in
  let g = Payload.dag p in
  let t0 = now () in
  let seq_fp = Payload.execute p in
  let seq_s = now () -. t0 in
  List.iter
    (fun domains ->
      List.iter
        (fun order ->
          let stats = ref None in
          let executor =
            Runtime.executor ~domains ~order ~priority:(Payload.rank p)
              ~on_stats:(fun s -> stats := Some s)
              ()
          in
          let fp = Payload.execute ~executor p in
          let s = Option.get !stats in
          let ok = fp = seq_fp && Payload.check p fp in
          emit
            (Printf.sprintf
               "{\"phase\": \"par\", \"bench\": \"par_%s%d_%s_d%d\", \
                \"n_nodes\": %d, \"tasks\": %d, \"time_ms\": %.3f, \
                \"seq_time_ms\": %.3f, \"speedup\": %.2f, \"steals\": %d, \
                \"steal_attempts\": %d, \"overflows\": %d, \"parks\": %d, \
                \"ok\": %b}"
               family size (order_name order) domains (Ic_dag.Dag.n_nodes g)
               s.Runtime.tasks
               (s.Runtime.wall_s *. 1000.)
               (seq_s *. 1000.)
               (seq_s /. s.Runtime.wall_s)
               s.Runtime.steals s.Runtime.steal_attempts s.Runtime.overflows
               s.Runtime.parks ok))
        orders)
    (domain_counts ~quick)

(* single-domain push/pop throughput of the work-stealing deque: the
   per-task floor the runtime adds before any payload work runs *)
let bench_deque ~emit ~quick =
  let ops = if quick then 1 lsl 18 else 1 lsl 21 in
  let d = Ic_par.Deque.create ~capacity:1024 in
  let t0 = now () in
  for i = 0 to ops - 1 do
    ignore (Ic_par.Deque.push d i);
    ignore (Ic_par.Deque.pop d)
  done;
  let el = now () -. t0 in
  emit
    (Printf.sprintf
       "{\"phase\": \"par\", \"bench\": \"par_deque_pushpop\", \"ops\": %d, \
        \"time_ms\": %.3f, \"ns_per_op\": %.1f}"
       ops (el *. 1000.)
       (el /. float_of_int ops *. 1e9))

let run ~quick ~emit =
  List.iter (bench_payload ~emit ~quick) (cases ~quick);
  bench_deque ~emit ~quick
