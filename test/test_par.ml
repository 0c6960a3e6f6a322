(* Tests for the domains-based parallel runtime (lib/par). *)

module Dag = Ic_dag.Dag
module Frontier = Ic_dag.Frontier
module Runtime = Ic_par.Runtime
module Payload = Ic_par.Payload
module Deque = Ic_par.Deque
module Pool = Ic_par.Pool
module Live = Ic_obs.Live

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* --- determinism: parallel fingerprints = sequential, any config --- *)

(* family index, size (range scaled per family so cases stay <1s even
   with 4 domains on one core), domain count, ordering mode *)
let gen_config =
  QCheck2.Gen.(
    bind (int_bound 3) (fun fi ->
        bind (int_range 1 4) (fun domains ->
            bind bool (fun ic ->
                let hi =
                  match fi with 0 -> 8 | 1 -> 5 | 2 -> 3 | _ -> 7
                in
                map (fun size -> (fi, size, domains, ic)) (int_range 1 hi)))))

let prop_parallel_matches_sequential =
  QCheck2.Test.make
    ~name:"parallel fingerprint = sequential (family x size x domains x order)"
    ~count:48
    ~print:(fun (fi, size, domains, ic) ->
      Printf.sprintf "%s size=%d domains=%d order=%s"
        (List.nth Payload.families fi)
        size domains
        (if ic then "ic" else "steal"))
    gen_config
    (fun (fi, size, domains, ic) ->
      let family = List.nth Payload.families fi in
      let p = Payload.make ~family ~size () in
      let seq = Payload.execute p in
      let order = if ic then Runtime.Ic_priority else Runtime.Steal in
      let executor =
        Runtime.executor ~domains ~order ~priority:(Payload.rank p) ()
      in
      let par = Payload.execute ~executor p in
      par = seq && Payload.check p par)

(* --- pinned fingerprints ---------------------------------------------- *)

(* The MD5 of each payload's fingerprint (every float's IEEE bits) and of
   its rank array, for every family at four sizes. Any change to a
   payload's values, inputs or IC-optimal order shows here. *)
let digest_floats a =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri
    (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x))
    a;
  Digest.to_hex (Digest.bytes b)

let digest_ints a =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.of_int x)) a;
  Digest.to_hex (Digest.bytes b)

let pinned_fingerprints =
  [
    ("wavefront", 1, "c61d71150f71afa8fe71bbecea42cf72",
      "6708c3818d3340ec4ef4a3c795879ca2");
    ("wavefront", 5, "cc3b09b859da3fce3a932fee3d8aed9c",
      "adb543003ed9695369835b5414cd75d6");
    ("wavefront", 16, "d24adbcf68634cd430cabd6028f0c443",
      "ca5d5afb963055bce64d2b5e11bd849a");
    ("wavefront", 40, "9fcc96af85c56c892d9a5750a94bec1d",
      "561c8d7422708c9b793d14ef0c15dc7f");
    ("fft", 1, "99dac87def72723fae14acb77248842d",
      "6708c3818d3340ec4ef4a3c795879ca2");
    ("fft", 3, "acbc417e040dba7de488cdd51d6a1435",
      "743895a54c377706ee30c02def3e3539");
    ("fft", 6, "4c8ce00da0e1573862cd1669cd0de522",
      "f07f7c3812764ed75e5cb5357d89dfc3");
    ("fft", 9, "c37d2f94e78db714f62c3281a9a46c0a",
      "5726a9d5e1a26a4a87d4fde39e7bcf05");
    ("matmul", 1, "da567875882c35ab046656431bb0fbc4",
      "9ac3045eddc72ae51d694d30b6fc6e12");
    ("matmul", 2, "82d338696ced48ccf67999df9a50fb9e",
      "9ac3045eddc72ae51d694d30b6fc6e12");
    ("matmul", 4, "0d679422678b65cc9961a0693da9f506",
      "9ac3045eddc72ae51d694d30b6fc6e12");
    ("matmul", 6, "fb2bda0240e9905ebb9043caed9f8e6d",
      "9ac3045eddc72ae51d694d30b6fc6e12");
    ("quadrature", 1, "a3f82d8459c95483f65458d4ddf1d4e0",
      "f0156444d7069a5861574f84db207ffd");
    ("quadrature", 4, "bd311f77841a535b60bcdf56c25d0f21",
      "e5183a9085da8c8053094bd7706ca3e3");
    ("quadrature", 10, "f4cb4edcbd7943ec985d525f231616f0",
      "ce697b0bc8754250bfcb75be1b986a72");
    ("quadrature", 14, "7ad56eac2f0fc421dd26c731c6c52f45",
      "f47b5cfe4f7e303dfc95e48716a6ac5e");
  ]

let test_pinned_fingerprints () =
  List.iter
    (fun (family, size, fp_md5, rank_md5) ->
      let p = Payload.make ~family ~size () in
      let what = Printf.sprintf "%s size %d" family size in
      Alcotest.(check string) (what ^ " fingerprint") fp_md5
        (digest_floats (Payload.execute p));
      Alcotest.(check string) (what ^ " rank") rank_md5
        (digest_ints (Payload.rank p)))
    pinned_fingerprints

(* The fft check compares every output with the sequential FFT and a
   sample with the DFT's definition: a fingerprint off at any single
   output, in either component, is rejected. *)
let test_fft_check_rejects_one_bad_output () =
  let d = 6 in
  let p = Payload.make ~family:"fft" ~size:d () in
  let fp = Payload.execute p in
  Alcotest.(check bool) "clean fingerprint passes" true (Payload.check p fp);
  for r = 0 to (1 lsl d) - 1 do
    let v = Ic_families.Butterfly_net.node ~d d r in
    List.iter
      (fun i ->
        let bad = Array.copy fp in
        bad.(i) <- bad.(i) +. 0.5;
        if Payload.check p bad then
          Alcotest.failf "output %d: entry %d off by 0.5 passed" r i)
      [ 2 * v; (2 * v) + 1 ]
  done

(* --- deque vs a sequence model, single domain ------------------------ *)

(* ops: 0 = push, 1 = owner pop (expect newest), 2 = steal (expect
   oldest). With no concurrency every non-empty pop/steal must succeed:
   a None on a non-empty deque would mean a lost element. *)
let prop_deque_matches_model =
  QCheck2.Test.make ~name:"deque matches sequence model (single domain)"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 300) (int_bound 2))
    (fun ops ->
      let capacity = 16 in
      let d = Deque.create ~capacity in
      let model = ref [] (* head = oldest *) in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            let v = !next in
            incr next;
            let was_full = List.length !model >= capacity in
            let accepted = Deque.push d v in
            if accepted then model := !model @ [ v ];
            accepted = not was_full
          | 1 -> (
            match (Deque.pop d, List.rev !model) with
            | None, [] -> true
            | Some v, newest :: rest_rev ->
              model := List.rev rest_rev;
              v = newest
            | _ -> false)
          | _ -> (
            match (Deque.steal d, !model) with
            | None, [] -> true
            | Some v, oldest :: rest ->
              model := rest;
              v = oldest
            | _ -> false))
        ops
      && Deque.size d = List.length !model)

(* --- deque under real concurrency: nothing lost, nothing duplicated -- *)

let test_deque_concurrent_stress () =
  let total = 20_000 and n_thieves = 3 in
  let d = Deque.create ~capacity:64 in
  let done_flag = Atomic.make false in
  let thieves =
    Array.init n_thieves (fun _ ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            let rec loop () =
              match Deque.steal d with
              | Some v ->
                acc := v :: !acc;
                loop ()
              | None ->
                if not (Atomic.get done_flag) then begin
                  Domain.cpu_relax ();
                  loop ()
                end
                (* after done: the owner drains leftovers, so a thief
                   may exit on any None *)
            in
            loop ();
            !acc))
  in
  let popped = ref [] in
  for v = 0 to total - 1 do
    while not (Deque.push d v) do
      match Deque.pop d with
      | Some u -> popped := u :: !popped
      | None -> Domain.cpu_relax ()
    done
  done;
  Atomic.set done_flag true;
  let stolen = Array.to_list (Array.map Domain.join thieves) in
  (* single-threaded from here: pop to empty *)
  let rec drain () =
    match Deque.pop d with
    | Some v ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "deque empty" 0 (Deque.size d);
  let all = List.sort compare (List.concat (!popped :: stolen)) in
  Alcotest.(check int) "every push accounted for" total (List.length all);
  List.iteri
    (fun i v ->
      if i <> v then Alcotest.failf "lost or duplicated element near %d" i)
    all

(* --- pool ------------------------------------------------------------ *)

let test_pool_rank_order () =
  let rank = [| 5; 3; 9; 0; 7 |] in
  let p = Pool.create ~shards:1 ~rank in
  List.iter (fun v -> Pool.push p ~shard:0 v) [ 0; 1; 2; 3; 4 ];
  let order = List.init 5 (fun _ -> Option.get (Pool.pop p ~shard:0)) in
  (* lowest rank first: node 3 (rank 0), 1 (3), 0 (5), 4 (7), 2 (9) *)
  Alcotest.(check (list int)) "min-rank order" [ 3; 1; 0; 4; 2 ] order;
  Alcotest.(check bool) "empty pop" true (Pool.pop p ~shard:0 = None)

let test_pool_steal () =
  let rank = Array.init 8 (fun i -> i) in
  let p = Pool.create ~shards:2 ~rank in
  Pool.push p ~shard:0 6;
  Pool.push p ~shard:0 2;
  Alcotest.(check (option int))
    "steals the best of the shard" (Some 2)
    (Pool.try_steal p ~shard:0);
  Alcotest.(check (option int)) "empty steal" None (Pool.try_steal p ~shard:1);
  Alcotest.(check int) "size" 1 (Pool.size p)

(* random pushes and pops over heavily tied ranks (32 ids, ranks 0..3,
   repeats allowed) pop exactly as a sorted-list model: least
   (rank, id) first *)
let prop_rank_order name ~make ~push ~pop =
  QCheck2.Test.make ~name ~count:300
    ~print:QCheck2.Print.(pair (array int) (list (option int)))
    QCheck2.Gen.(
      pair
        (array_size (return 32) (int_bound 3))
        (list_size (int_range 0 300) (opt ~ratio:0.6 (int_bound 31))))
    (fun (rank, ops) ->
      let h = make rank in
      let model = ref [] in
      List.for_all
        (function
          | Some v ->
            push h v;
            model := List.merge compare [ (rank.(v), v) ] !model;
            true
          | None -> (
            match (pop h, !model) with
            | None, [] -> true
            | Some v, (_, m) :: rest ->
              model := rest;
              v = m
            | _ -> false))
        ops)

let prop_rank_heap_order =
  let module H = Ic_heuristics.Rank_heap in
  prop_rank_order "rank heap pops in (rank, id) order" ~make:H.create
    ~push:H.push ~pop:H.pop

let prop_pool_order =
  prop_rank_order "one-shard pool pops in (rank, id) order"
    ~make:(fun rank -> Pool.create ~shards:1 ~rank)
    ~push:(fun p v -> Pool.push p ~shard:0 v)
    ~pop:(fun p -> Pool.pop p ~shard:0)

(* --- runtime edge cases ---------------------------------------------- *)

let test_empty_dag () =
  let g = Dag.empty 0 in
  List.iter
    (fun order ->
      let st = Runtime.run ~domains:2 ~order g ~task:(fun _ -> assert false) in
      Alcotest.(check int) "no tasks" 0 st.Runtime.tasks)
    [ Runtime.Steal; Runtime.Ic_priority ]

let test_single_node () =
  let g = Dag.empty 1 in
  List.iter
    (fun order ->
      let hits = Atomic.make 0 in
      let st =
        Runtime.run ~domains:4 ~order g ~task:(fun v ->
            assert (v = 0);
            ignore (Atomic.fetch_and_add hits 1))
      in
      Alcotest.(check int) "one task" 1 st.Runtime.tasks;
      Alcotest.(check int) "task ran once" 1 (Atomic.get hits))
    [ Runtime.Steal; Runtime.Ic_priority ]

let test_park_knobs () =
  (* four domains on a small dag park often and still complete it *)
  let g = Ic_families.Mesh.out_mesh 6 in
  let hits = Atomic.make 0 in
  let st =
    Runtime.run ~domains:4 g ~task:(fun _ ->
        ignore (Atomic.fetch_and_add hits 1))
  in
  Alcotest.(check int) "all tasks ran" (Dag.n_nodes g) (Atomic.get hits);
  Alcotest.(check int) "stats agree" (Dag.n_nodes g) st.Runtime.tasks

let test_priority_length_mismatch () =
  let g = Dag.empty 3 in
  match
    Runtime.run ~order:Runtime.Ic_priority ~priority:[| 0; 1 |] g
      ~task:(fun _ -> ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on short priority"

let test_engine_rejects_schedule_plus_executor () =
  let g = Dag.empty 2 in
  let e = { Ic_compute.Engine.dag = g; compute = (fun _ _ -> 0) } in
  let s = Ic_dag.Schedule.natural g in
  let executor = Runtime.executor () in
  match Ic_compute.Engine.execute ~schedule:s ~executor e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of schedule + executor"

(* --- every task runs exactly once, after its predecessors ----------- *)

(* each task checks, inside [task], that it has not run before and that
   every predecessor has finished; violations are counted rather than
   raised, since a task that raises takes its domain down mid-run *)
let check_dependences ~domains ~order g =
  let n = Dag.n_nodes g in
  let stamp = Array.make n (-1) in
  let clock = Atomic.make 0 in
  let reruns = Atomic.make 0 and early = Atomic.make 0 in
  let st =
    Runtime.run ~domains ~order g ~task:(fun v ->
        if stamp.(v) >= 0 then Atomic.incr reruns;
        Dag.iter_pred g v (fun u -> if stamp.(u) < 0 then Atomic.incr early);
        stamp.(v) <- Atomic.fetch_and_add clock 1)
  in
  Alcotest.(check int) "no task ran twice" 0 (Atomic.get reruns);
  Alcotest.(check int) "no task ran before a predecessor" 0 (Atomic.get early);
  Alcotest.(check int) "all tasks ran" n st.Runtime.tasks;
  Array.iteri
    (fun v s -> if s < 0 then Alcotest.failf "node %d never ran" v)
    stamp;
  Alcotest.(check int) "per-domain totals add up" n
    (Array.fold_left ( + ) 0 st.Runtime.per_domain_tasks)

(* [k] collectors, nodes 0 .. k-1 so their counts share a packed word,
   each fed by [width] sources of its own, the last collector's sources
   numbered first: a count that does not fit its field shows as a
   neighbour run before its predecessors *)
let fan_ins ~width ~k =
  let b = Dag.Builder.create ~n:(k + (k * width)) () in
  for c = 0 to k - 1 do
    for j = 0 to width - 1 do
      Dag.Builder.add_arc b (k + ((k - 1 - c) * width) + j) c
    done
  done;
  Dag.Builder.build_exn b

let test_tasks_respect_dependences () =
  check_dependences ~domains:4 ~order:Runtime.Steal
    (Ic_families.Mesh.out_mesh 24);
  (* the wide packing tiers of the dependence counts: 256-way fan-ins
     (16-bit fields) and 65,536-way fan-ins (one count per word) *)
  List.iter
    (fun (tier, g) ->
      Alcotest.(check bool) "input is in its tier" true
        (Frontier.scratch_tier g = tier);
      List.iter
        (fun order -> check_dependences ~domains:2 ~order g)
        [ Runtime.Steal; Runtime.Ic_priority ])
    [
      (Frontier.Packed16, fan_ins ~width:256 ~k:3);
      (Frontier.Unpacked, fan_ins ~width:65536 ~k:2);
    ]

(* --- steal counters reach the metrics registry (satellite 6) --------- *)

let test_mesh256_records_steals () =
  (* Four domains over mesh-256 (33k tasks, one source): domains 1-3
     can only obtain their first task by stealing, so a steal is all
     but guaranteed — but the schedule is nondeterministic, so retry a
     few times before declaring failure (matters on 1-core hosts). *)
  let g = Ic_families.Mesh.out_mesh 256 in
  let work = ref 0.0 in
  let task _ =
    let acc = ref 1.0 in
    for _ = 1 to 40 do
      acc := Float.of_int (Sys.opaque_identity 3) *. !acc *. 0.25
    done;
    work := !acc
  in
  let rec attempt k =
    let l = Live.create () in
    let st = Runtime.run ~domains:4 ~live:l g ~task in
    let recorded = Live.counter_value (Live.counter l "par.steals") in
    Alcotest.(check int) "metrics steals = stats steals" st.Runtime.steals
      recorded;
    Alcotest.(check int) "metrics tasks" st.Runtime.tasks
      (Live.counter_value (Live.counter l "par.tasks"));
    if recorded >= 1 then ()
    else if k >= 20 then
      Alcotest.failf "no steal recorded in %d 4-domain mesh-256 runs" k
    else attempt (k + 1)
  in
  attempt 1;
  ignore !work

(* a 1-domain run's event order, pinned; its times come from the wall
   clock, so only kinds and payloads are hashed *)
let test_runtime_trace_pinned () =
  let g = Ic_families.Mesh.out_mesh 8 in
  let sink = Ic_obs.Trace.create () in
  ignore (Runtime.run ~domains:1 ~sink g ~task:ignore);
  let b = Buffer.create 4096 in
  Ic_obs.Trace.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s %d %d\n"
           (Ic_obs.Trace.kind_name e.Ic_obs.Trace.kind)
           e.Ic_obs.Trace.a e.Ic_obs.Trace.b))
    sink;
  Alcotest.(check int) "two events per task" (2 * Dag.n_nodes g) (Ic_obs.Trace.length sink);
  Alcotest.(check string) "pinned trace digest" "5b418a3b8fd503b043290e965cfacd2f"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- live registry under real domains ------------------------------- *)

(* N domains all increment the one cell of a shared counter; once the
   writers are quiescent its value must equal the sequential oracle
   exactly — no lost increments, no double counts, under any (domains,
   increments, step) mix *)
let prop_live_merge_on_read =
  QCheck2.Test.make
    ~name:"live counter merge-on-read = sequential oracle (N domains)"
    ~count:30
    ~print:(fun (domains, per_domain, by) ->
      Printf.sprintf "domains=%d per_domain=%d by=%d" domains per_domain by)
    QCheck2.Gen.(
      triple (int_range 1 6) (int_range 1 5_000) (int_range 1 3))
    (fun (domains, per_domain, by) ->
      let l = Live.create () in
      let c = Live.counter l "t.hits" in
      let other = Live.counter l "t.other" in
      let spawned =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Live.incr c by;
                  (* a second instrument in the same registry must not
                     absorb or leak any of the increments *)
                  Live.incr other 1
                done))
      in
      List.iter Domain.join spawned;
      Live.counter_value c = domains * per_domain * by
      && Live.counter_value other = domains * per_domain)

(* while writers are still running, a concurrent reader must see a
   monotonically growing value bounded by the true total: reads never
   invent or lose settled increments *)
let test_live_concurrent_reads () =
  let writers = 4 and per_domain = 200_000 in
  let l = Live.create () in
  let c = Live.counter l "t.c" in
  let spawned =
    List.init writers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Live.incr c 1
            done))
  in
  let last = ref 0 in
  let monotone = ref true in
  let bounded = ref true in
  (* poll from the test domain while the writers run *)
  for _ = 1 to 10_000 do
    let v = Live.counter_value c in
    if v < !last then monotone := false;
    if v > writers * per_domain then bounded := false;
    last := v
  done;
  List.iter Domain.join spawned;
  Alcotest.(check bool) "reads never go backwards" true !monotone;
  Alcotest.(check bool) "reads never exceed the true total" true
    !bounded;
  Alcotest.(check int) "quiescent sum is exact" (writers * per_domain)
    (Live.counter_value c)

(* the runtime mirrors its meters into ?live without perturbing the
   run: live par.* totals equal the deterministic stats *)
let test_runtime_live_wiring () =
  let g = Ic_families.Mesh.out_mesh 64 in
  let l = Live.create () in
  let work = ref 0 in
  let st =
    Runtime.run ~domains:4 ~live:l g ~task:(fun _ ->
        incr work (* racy; only forces a real payload *))
  in
  let live_c name = Live.counter_value (Live.counter l name) in
  Alcotest.(check int) "par.tasks mirrors stats" st.Runtime.tasks
    (live_c "par.tasks");
  Alcotest.(check int) "par.steals mirrors stats" st.Runtime.steals
    (live_c "par.steals");
  Alcotest.(check int) "par.overflows mirrors stats" st.Runtime.overflows
    (live_c "par.overflows");
  Alcotest.(check bool) "par.domains gauge" true
    (Live.gauge_value (Live.gauge l "par.domains") = 4.0);
  Alcotest.(check bool) "par.wall_s gauge set" true
    (Live.gauge_value (Live.gauge l "par.wall_s") > 0.0);
  let s = Live.histogram_snapshot (Live.histogram l "par.task_s") in
  Alcotest.(check int) "one task_s observation per task" st.Runtime.tasks
    s.Live.count;
  (* and the deterministic fingerprint is untouched by the mirror *)
  Alcotest.(check int) "every task ran" (Dag.n_nodes g) st.Runtime.tasks

(* the instrument names a runtime run leaves in its registry, pinned:
   a scraper or dashboard keyed on them keeps working *)
let test_runtime_live_names () =
  let names l =
    match Ic_obs.Json.parse (Live.to_json l) with
    | Error e -> Alcotest.fail e
    | Ok doc ->
      List.concat_map
        (fun section ->
          match Ic_obs.Json.member section doc with
          | Some (Ic_obs.Json.Object kvs) -> List.map fst kvs
          | _ -> Alcotest.failf "no %s section" section)
        [ "counters"; "gauges"; "histograms" ]
      |> List.sort compare
  in
  let expected =
    [
      "par.domains"; "par.overflows"; "par.parks"; "par.steal_attempts";
      "par.steals"; "par.task_s"; "par.tasks"; "par.wall_s";
    ]
  in
  let l = Live.create () in
  ignore
    (Runtime.run ~domains:2 ~live:l (Ic_families.Mesh.out_mesh 16)
       ~task:ignore);
  Alcotest.(check (list string)) "names after a run" expected (names l);
  let empty = Live.create () in
  ignore
    (Runtime.run ~domains:2 ~live:empty (Dag.make_exn ~n:0 ~arcs:[] ())
       ~task:ignore);
  Alcotest.(check (list string)) "names after an empty run" expected
    (names empty)

let () =
  Alcotest.run "ic_par"
    [
      ( "determinism",
        Alcotest.test_case "dependences respected on mesh" `Quick
          test_tasks_respect_dependences
        :: qcheck [ prop_parallel_matches_sequential ] );
      ( "payload",
        [
          Alcotest.test_case "pinned fingerprints and ranks" `Quick
            test_pinned_fingerprints;
          Alcotest.test_case "fft check rejects one bad output" `Quick
            test_fft_check_rejects_one_bad_output;
        ] );
      ( "deque",
        Alcotest.test_case "concurrent stress: no loss, no dup" `Quick
          test_deque_concurrent_stress
        :: qcheck [ prop_deque_matches_model ] );
      ( "pool",
        [
          Alcotest.test_case "rank order" `Quick test_pool_rank_order;
          Alcotest.test_case "steal best" `Quick test_pool_steal;
        ]
        @ qcheck [ prop_rank_heap_order; prop_pool_order ] );
      ( "edges",
        [
          Alcotest.test_case "empty dag" `Quick test_empty_dag;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "priority length mismatch" `Quick
            test_priority_length_mismatch;
          Alcotest.test_case "park knobs" `Quick test_park_knobs;
          Alcotest.test_case "engine rejects schedule+executor" `Quick
            test_engine_rejects_schedule_plus_executor;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "mesh-256 x 4 domains records steals" `Quick
            test_mesh256_records_steals;
          Alcotest.test_case "1-domain trace matches pinned digest" `Quick
            test_runtime_trace_pinned;
        ] );
      ( "live",
        Alcotest.test_case "concurrent reads are monotone and bounded" `Quick
          test_live_concurrent_reads
        :: Alcotest.test_case "runtime mirrors meters into ?live" `Quick
             test_runtime_live_wiring
        :: Alcotest.test_case "runtime instrument names are pinned" `Quick
             test_runtime_live_names
        :: qcheck [ prop_live_merge_on_read ] );
    ]
