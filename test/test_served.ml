(* The served subsystem: wire codec properties, the sharded lease server
   state machine, the deterministic virtual load harness, and the TCP
   transport over loopback. *)

module Wire = Ic_served.Wire
module Server = Ic_served.Server
module Shards = Ic_served.Shards
module Hammer = Ic_served.Hammer
module Tcp = Ic_served.Tcp
module Shard_view = Ic_dag.Shard_view
module Frontier = Ic_dag.Frontier
module Dag = Ic_dag.Dag
module Mesh = Ic_families.Mesh
module Plan = Ic_fault.Plan
module Recovery = Ic_fault.Recovery
module Live = Ic_obs.Live
module Trace = Ic_obs.Trace

let qcheck = List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------ wire codec *)

let gen_msg =
  let open QCheck.Gen in
  let id = frequency [ (4, int_range 0 0xFFFF); (1, int_range 0 Wire.max_u32) ] in
  let dur =
    frequency
      [
        (4, map Float.abs (float_bound_inclusive 1000.0));
        (1, return infinity);
        (1, return 0.0);
      ]
  in
  frequency
    [
      (3, map (fun worker -> Wire.Hello { worker }) id);
      ( 5,
        map2
          (fun worker k -> Wire.Lease_req { worker; k })
          id (int_range 1 0xFFFF) );
      (5, map2 (fun worker task -> Wire.Complete { worker; task }) id id);
      (2, map (fun worker -> Wire.Heartbeat { worker }) id);
      (1, return Wire.Drain);
      ( 2,
        map2 (fun n_tasks n_shards -> Wire.Welcome { n_tasks; n_shards }) id id
      );
      ( 5,
        map2
          (fun tasks expires_in_s -> Wire.Lease { tasks; expires_in_s })
          (map Array.of_list (list_size (int_range 1 64) id))
          dur );
      (2, map (fun delay_s -> Wire.Retry_after { delay_s }) dur);
      (2, map2 (fun completed reissues -> Wire.Done { completed; reissues }) id id);
      (1, return Wire.Ack);
    ]

let arb_msg = QCheck.make ~print:(fun _ -> "<msg>") gen_msg

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips every message"
    ~count:2000 arb_msg (fun m ->
      let s = Wire.to_string m in
      let b = Bytes.of_string s in
      match Wire.decode_frame b ~pos:0 ~avail:(Bytes.length b) with
      | `Msg (m', consumed) -> m' = m && consumed = Bytes.length b
      | `Need_more | `Error _ -> false)

let prop_truncated_needs_more =
  QCheck.Test.make ~name:"every strict prefix of a frame is Need_more"
    ~count:500 arb_msg (fun m ->
      let b = Bytes.of_string (Wire.to_string m) in
      let n = Bytes.length b in
      let ok = ref true in
      for len = 0 to n - 1 do
        match Wire.decode_frame b ~pos:0 ~avail:len with
        | `Need_more -> ()
        | `Msg _ | `Error _ -> ok := false
      done;
      !ok)

let prop_junk_never_raises =
  QCheck.Test.make ~name:"arbitrary bytes never raise out of the reader"
    ~count:2000
    QCheck.(string_of_size (Gen.int_range 0 256))
    (fun s ->
      let r = Wire.Reader.create () in
      Wire.Reader.feed r (Bytes.of_string s) 0 (String.length s);
      (* drain until the reader stalls or errors; any exception fails *)
      let rec drain budget =
        if budget = 0 then true
        else
          match Wire.Reader.next r with
          | Ok (Some _) -> drain (budget - 1)
          | Ok None | Error _ -> true
      in
      drain 64)

let test_oversized_frame_rejected () =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int (Wire.max_frame + 1));
  (match Wire.decode_frame b ~pos:0 ~avail:8 with
  | `Error _ -> ()
  | `Msg _ | `Need_more -> Alcotest.fail "oversized length accepted");
  (* and through the reader: the stream is unrecoverable *)
  let r = Wire.Reader.create () in
  Wire.Reader.feed r b 0 8;
  match Wire.Reader.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reader accepted oversized frame"

let test_bad_tag_rejected () =
  let b = Bytes.create 5 in
  Bytes.set_int32_le b 0 1l;
  Bytes.set b 4 '\xEE';
  match Wire.decode_frame b ~pos:0 ~avail:5 with
  | `Error _ -> ()
  | `Msg _ | `Need_more -> Alcotest.fail "unknown tag accepted"

let test_trailing_bytes_rejected () =
  (* a valid Drain payload plus one stray byte inside the frame *)
  let drain = Wire.to_string Wire.Drain in
  let payload_len = String.length drain - 4 in
  let b = Bytes.create (String.length drain + 1) in
  Bytes.blit_string drain 0 b 0 (String.length drain);
  Bytes.set_int32_le b 0 (Int32.of_int (payload_len + 1));
  Bytes.set b (String.length drain) '\x00';
  match Wire.decode_frame b ~pos:0 ~avail:(Bytes.length b) with
  | `Error _ -> ()
  | `Msg _ | `Need_more -> Alcotest.fail "trailing payload bytes accepted"

let test_reader_byte_at_a_time () =
  let msgs =
    [
      Wire.Hello { worker = 7 };
      Wire.Lease { tasks = [| 1; 2; 3 |]; expires_in_s = 0.5 };
      Wire.Retry_after { delay_s = infinity };
      Wire.Complete { worker = 7; task = 2 };
      Wire.Done { completed = 3; reissues = 0 };
      Wire.Ack;
    ]
  in
  let buf = Buffer.create 128 in
  List.iter (Wire.encode buf) msgs;
  let s = Buffer.to_bytes buf in
  let r = Wire.Reader.create () in
  let got = ref [] in
  Bytes.iter
    (fun c ->
      Wire.Reader.feed r (Bytes.make 1 c) 0 1;
      let rec drain () =
        match Wire.Reader.next r with
        | Ok (Some m) ->
          got := m :: !got;
          drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "reader error: %s" e
      in
      drain ())
    s;
  Alcotest.(check int) "message count" (List.length msgs) (List.length !got);
  if List.rev !got <> msgs then Alcotest.fail "messages differ or reordered"

(* the TCP ends coalesce frames into one buffer per connection, so a
   rejected message must not leave a partial frame behind in it *)
let test_encode_rejects_atomically () =
  let buf = Buffer.create 64 in
  Wire.encode buf (Wire.Hello { worker = 1 });
  let before = Buffer.contents buf in
  List.iter
    (fun m ->
      (match Wire.encode buf m with
      | () -> Alcotest.fail "out-of-range message encoded"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "length unchanged" (String.length before)
        (Buffer.length buf);
      Alcotest.(check string) "bytes unchanged" before (Buffer.contents buf))
    [
      Wire.Complete { worker = 1; task = -1 };
      Wire.Complete { worker = Wire.max_u32 + 1; task = 0 };
      Wire.Lease { tasks = [| 1; 2; Wire.max_u32 + 1 |]; expires_in_s = 1.0 };
      Wire.Lease
        { tasks = Array.make (Wire.max_lease_tasks + 1) 0; expires_in_s = 1.0 };
      Wire.Lease_req { worker = 1; k = 0 };
    ]

(* ------------------------------------------------- shard view and pools *)

let test_shard_view_partition () =
  let g = Mesh.out_mesh 20 in
  let v = Shard_view.create ~n_shards:3 g in
  Alcotest.(check int) "shards" 3 (Shard_view.n_shards v);
  let total = ref 0 in
  for s = 0 to 2 do
    total := !total + Shard_view.shard_size v s
  done;
  Alcotest.(check int) "sizes cover the dag" (Dag.n_nodes g) !total;
  (* contiguous blocks: shard_of is monotone in the node id *)
  for u = 1 to Dag.n_nodes g - 1 do
    if Shard_view.shard_of v u < Shard_view.shard_of v (u - 1) then
      Alcotest.fail "shard_of not monotone"
  done

(* [k] collectors, nodes 0 .. k-1 so their counts share a packed word,
   each fed by [width] sources of its own; the last collector's sources
   have the lowest ids, so a collector's count is decremented before its
   lower neighbour's: a count that does not fit its field shows as a
   neighbour reported ready too early *)
let fan_ins ~width ~k =
  let b = Dag.Builder.create ~n:(k + (k * width)) () in
  for c = 0 to k - 1 do
    for j = 0 to width - 1 do
      Dag.Builder.add_arc b (k + ((k - 1 - c) * width) + j) c
    done
  done;
  Dag.Builder.build_exn b

(* one input per packing tier of the view's counts: out-mesh-20's
   in-degrees fit 8 bits, 256-way fan-ins need 16-bit fields, a
   65,536-way fan-in needs a word of its own *)
let tier_inputs () =
  [
    (Frontier.Packed8, Mesh.out_mesh 20);
    (Frontier.Packed16, fan_ins ~width:256 ~k:3);
    (Frontier.Unpacked, fan_ins ~width:65536 ~k:2);
  ]

let test_shard_view_exactly_once_ready () =
  List.iter
    (fun (tier, g) ->
      Alcotest.(check bool) "input is in its tier" true
        (Frontier.scratch_tier g = tier);
      let n = Dag.n_nodes g in
      let v = Shard_view.create ~n_shards:4 g in
      let seen = Array.make n 0 in
      let completed = Array.make n false in
      let pending = Queue.create () in
      Shard_view.iter_initial v (fun ~shard:_ u ->
          seen.(u) <- seen.(u) + 1;
          Queue.add u pending);
      while not (Queue.is_empty pending) do
        let u = Queue.pop pending in
        completed.(u) <- true;
        Shard_view.complete v u ~ready:(fun ~shard u' ->
            Alcotest.(check int) "shard tag" (Shard_view.shard_of v u') shard;
            Dag.iter_pred g u' (fun p ->
                if not completed.(p) then
                  Alcotest.failf "node %d ready before its parent %d" u' p);
            seen.(u') <- seen.(u') + 1;
            Queue.add u' pending)
      done;
      Alcotest.(check bool) "complete" true (Shard_view.is_complete v);
      Array.iteri
        (fun u c -> if c <> 1 then Alcotest.failf "node %d ready %d times" u c)
        seen)
    (tier_inputs ())

(* Frontier is the sequential oracle: completing a random topological
   order, each step's ready list is exactly what [Frontier.execute]
   promotes, in the same order. Half the cases are near-complete dags of
   257..300 nodes, whose late in-degrees pass 255 (Packed16) *)
let prop_shard_view_matches_frontier =
  QCheck.Test.make ~name:"complete reports what Frontier promotes" ~count:60
    QCheck.(pair bool (int_bound 100_000))
    (fun (dense, seed) ->
      let rng = Random.State.make [| seed |] in
      let n, arc_probability =
        if dense then
          (257 + Random.State.int rng 44, 0.95 +. Random.State.float rng 0.05)
        else (1 + Random.State.int rng 60, Random.State.float rng 0.5)
      in
      let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability in
      let order = Ic_dag.Schedule.order (Ic_dag.Gen.random_schedule rng g) in
      let view = Shard_view.create ~n_shards:(1 + Random.State.int rng 5) g in
      let f = Frontier.create g in
      let initial = ref [] in
      Shard_view.iter_initial view (fun ~shard:_ u -> initial := u :: !initial);
      List.rev !initial = Frontier.to_list f
      && Array.for_all
           (fun v ->
             let promoted = ref [] and reported = ref [] in
             Frontier.execute f v ~on_promote:(fun u ->
                 promoted := u :: !promoted);
             Shard_view.complete view v ~ready:(fun ~shard u ->
                 assert (shard = Shard_view.shard_of view u);
                 reported := u :: !reported);
             !promoted = !reported)
           order
      && Shard_view.is_complete view)

let test_pool_batch_pop () =
  let p = Shards.create ~n_shards:2 () in
  List.iter (fun v -> Shards.push p ~shard:0 v) [ 1; 2; 3; 4; 5 ];
  Shards.push p ~shard:1 9;
  let out = Array.make 8 0 in
  let n = Shards.pop_batch p ~shard:0 ~max:3 out in
  Alcotest.(check int) "batch size" 3 n;
  Alcotest.(check (list int)) "LIFO, newest first" [ 5; 4; 3 ]
    (Array.to_list (Array.sub out 0 3));
  Alcotest.(check int) "other shard untouched" 1 (Shards.size p ~shard:1);
  let n = Shards.pop_batch p ~shard:0 ~max:8 out in
  Alcotest.(check int) "remainder" 2 n;
  Alcotest.(check int) "drained" 0 (Shards.pop_batch p ~shard:0 ~max:8 out)

(* ------------------------------------------------------ server machine *)

(* out_mesh 1: node 0 -> {1, 2} *)
let tiny () = Mesh.out_mesh 1

let lease_tasks = function
  | Wire.Lease { tasks; _ } -> tasks
  | m -> Alcotest.failf "expected Lease, got %s" (Wire.to_string m |> String.escaped)

let test_lease_complete_done () =
  let srv = Server.create (Server.config ()) (tiny ()) in
  (match Server.handle srv ~now:0.0 (Wire.Hello { worker = 1 }) with
  | Wire.Welcome { n_tasks; n_shards } ->
    Alcotest.(check int) "n_tasks" 3 n_tasks;
    Alcotest.(check int) "n_shards" 1 n_shards
  | _ -> Alcotest.fail "expected Welcome");
  let t1 = lease_tasks (Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 1; k = 8 })) in
  Alcotest.(check (array int)) "only the source is eligible" [| 0 |] t1;
  (match Server.handle srv ~now:0.1 (Wire.Complete { worker = 1; task = 0 }) with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "expected Ack");
  let t2 = lease_tasks (Server.handle srv ~now:0.2 (Wire.Lease_req { worker = 1; k = 8 })) in
  let sorted = Array.copy t2 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "children eligible" [| 1; 2 |] sorted;
  ignore (Server.handle srv ~now:0.3 (Wire.Complete { worker = 1; task = 1 }));
  (match Server.handle srv ~now:0.4 (Wire.Complete { worker = 1; task = 2 }) with
  | Wire.Done { completed; _ } -> Alcotest.(check int) "done count" 3 completed
  | _ -> Alcotest.fail "expected Done");
  Alcotest.(check bool) "is_done" true (Server.is_done srv);
  let st = Server.stats srv in
  Alcotest.(check int) "completions" 3 st.Server.completions;
  Alcotest.(check int) "no duplicates" 0 st.Server.duplicate_completes;
  Alcotest.(check int) "inflight drained" 0 st.Server.inflight

let test_backpressure () =
  let srv =
    Server.create (Server.config ~max_inflight:1 ()) (Mesh.out_mesh 3)
  in
  let t = lease_tasks (Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 1; k = 8 })) in
  Alcotest.(check int) "inflight bound caps the batch" 1 (Array.length t);
  (match Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 2; k = 1 }) with
  | Wire.Retry_after { delay_s } ->
    Alcotest.(check bool) "positive delay" true (delay_s > 0.0)
  | _ -> Alcotest.fail "expected Retry_after");
  Alcotest.(check int) "retry counted" 1 (Server.stats srv).Server.retry_afters

(* the config is fixed, so every refusal is one value built at create:
   a refused request allocates no reply *)
let test_refusals_share_one_reply () =
  let srv =
    Server.create (Server.config ~max_inflight:1 ()) (Mesh.out_mesh 3)
  in
  ignore (Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 1; k = 1 }));
  let refuse worker =
    Server.handle srv ~now:0.0 (Wire.Lease_req { worker; k = 1 })
  in
  let a = refuse 2 in
  let b = refuse 3 in
  (match a with
  | Wire.Retry_after _ -> ()
  | _ -> Alcotest.fail "expected Retry_after");
  Alcotest.(check bool) "physically the same reply" true (a == b);
  Alcotest.(check int) "both refusals counted" 2
    (Server.stats srv).Server.retry_afters

(* a refusal with every pool empty skips the batch fill, which would pop
   nothing there: the reply, the counters and later re-issue must not
   notice. A pool holding only a stale entry still goes through the
   fill, which discards the entry *)
let test_empty_pools_refusal () =
  let live = Live.create () in
  let cfg =
    Server.config ~expected_s:1.0
      ~recovery:(Recovery.make ~timeout_factor:2.0 ())
      ()
  in
  let srv = Server.create ~live cfg (tiny ()) in
  let retries () =
    ( (Server.stats srv).Server.retry_afters,
      Live.counter_value (Live.counter live "served.retry_afters") )
  in
  let depth () = Live.gauge_value (Live.gauge live "served.frontier_depth") in
  let req ~now worker =
    Server.handle srv ~now (Wire.Lease_req { worker; k = 1 })
  in
  Alcotest.(check (array int)) "leased the source" [| 0 |]
    (lease_tasks (req ~now:0.0 1));
  let a = req ~now:0.1 2 in
  (match a with
  | Wire.Retry_after _ -> ()
  | _ -> Alcotest.fail "expected Retry_after with every task leased");
  Alcotest.(check (pair int int)) "one refusal, stats and live" (1, 1)
    (retries ());
  Alcotest.(check bool) "the shared reply" true (a == req ~now:0.2 3);
  Alcotest.(check (pair int int)) "two refusals" (2, 2) (retries ());
  Alcotest.(check int) "the lease expires" 1 (Server.expire srv ~now:2.0);
  Alcotest.(check (array int)) "and re-issues" [| 0 |]
    (lease_tasks (req ~now:2.1 4));
  (* drain down to two sinks, each held by its own lease *)
  ignore (Server.handle srv ~now:2.2 (Wire.Complete { worker = 4; task = 0 }));
  let first = (lease_tasks (req ~now:2.3 5)).(0) in
  let second = (lease_tasks (req ~now:3.0 6)).(0) in
  Alcotest.(check (list int)) "both sinks leased" [ 1; 2 ]
    (List.sort compare [ first; second ]);
  Alcotest.(check int) "first sink expires" 1 (Server.expire srv ~now:4.3);
  (match
     Server.handle srv ~now:4.4 (Wire.Complete { worker = 5; task = first })
   with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "straggler completion rejected");
  Alcotest.(check (float 0.0)) "its pool entry is stale" 1.0 (depth ());
  let before = fst (retries ()) in
  (match req ~now:4.5 7 with
  | Wire.Retry_after _ -> ()
  | _ -> Alcotest.fail "expected Retry_after over a stale pool");
  Alcotest.(check int) "refused" (before + 1) (fst (retries ()));
  Alcotest.(check (float 0.0)) "the fill discarded the stale entry" 0.0
    (depth ());
  Alcotest.(check int) "the other lease still expires" 1
    (Server.expire srv ~now:5.0);
  Alcotest.(check (array int)) "and re-issues" [| second |]
    (lease_tasks (req ~now:5.1 8))

let test_expiry_reissue_and_duplicate () =
  (* timeout = 0 detection + 2 * 1.0 expected = 2.0 *)
  let cfg =
    Server.config ~expected_s:1.0
      ~recovery:(Recovery.make ~timeout_factor:2.0 ())
      ()
  in
  let srv = Server.create cfg (tiny ()) in
  let t = lease_tasks (Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 1; k = 1 })) in
  Alcotest.(check (array int)) "leased the source" [| 0 |] t;
  Alcotest.(check int) "not yet due" 0 (Server.expire srv ~now:1.9);
  Alcotest.(check (float 1e-9)) "next expiry" 2.0 (Server.next_expiry srv);
  Alcotest.(check int) "re-issued at the deadline" 1 (Server.expire srv ~now:2.0);
  Alcotest.(check int) "inflight back to zero" 0 (Server.stats srv).Server.inflight;
  (* the task is leasable again *)
  let t = lease_tasks (Server.handle srv ~now:2.1 (Wire.Lease_req { worker = 2; k = 1 })) in
  Alcotest.(check (array int)) "re-leased" [| 0 |] t;
  (* the original straggler completes first: counts (first one wins) *)
  (match Server.handle srv ~now:2.2 (Wire.Complete { worker = 1; task = 0 }) with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "straggler completion rejected");
  (* the re-lease holder reports afterwards: a duplicate, no double apply *)
  (match Server.handle srv ~now:2.3 (Wire.Complete { worker = 2; task = 0 }) with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "duplicate not acknowledged");
  let st = Server.stats srv in
  Alcotest.(check int) "applied once" 1 st.Server.completions;
  Alcotest.(check int) "duplicate counted" 1 st.Server.duplicate_completes;
  Alcotest.(check int) "reissue counted" 1 st.Server.reissues

let test_heartbeat_renews () =
  let cfg =
    Server.config ~expected_s:1.0
      ~recovery:(Recovery.make ~timeout_factor:2.0 ())
      ()
  in
  let srv = Server.create cfg (tiny ()) in
  ignore (Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 1; k = 1 }));
  (match Server.handle srv ~now:1.0 (Wire.Heartbeat { worker = 1 }) with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "expected Ack");
  Alcotest.(check int) "old deadline is stale" 0 (Server.expire srv ~now:2.0);
  Alcotest.(check (float 1e-9)) "renewed to heartbeat + timeout" 3.0
    (Server.next_expiry srv);
  Alcotest.(check int) "fires at the renewed deadline" 1
    (Server.expire srv ~now:3.0)

(* a long run must not grow the server: a worker that never heartbeats
   leaves nothing behind its finished leases, and the heartbeat stamps of
   100k distinct workers are pruned as the expiry heap moves on *)
let test_server_stays_bounded () =
  (* isolated nodes 0 and 1, then a chain 2 -> 3 -> ...: the LIFO pool
     hands out the chain one task at a time and keeps 0 and 1 ready *)
  let cycles = 100_000 in
  let n = (2 * cycles) + 16 in
  let g =
    Dag.make_exn ~n ~arcs:(List.init (n - 3) (fun i -> (i + 2, i + 3))) ()
  in
  (* timeout = 2 * 0.001 *)
  let cfg =
    Server.config ~expected_s:0.001
      ~recovery:(Recovery.make ~timeout_factor:2.0 ())
      ()
  in
  let srv = Server.create cfg g in
  let now i = float_of_int i *. 0.001 in
  let cycle ~at =
    match
      lease_tasks
        (Server.handle srv ~now:at (Wire.Lease_req { worker = 7; k = 1 }))
    with
    | [| v |] ->
      ignore
        (Server.handle srv ~now:at (Wire.Complete { worker = 7; task = v }))
    | _ -> Alcotest.fail "expected a one-task lease"
  in
  let words_at_1k = ref 0 in
  for i = 1 to cycles do
    cycle ~at:(now i);
    ignore (Server.expire srv ~now:(now i));
    if i = 1_000 then words_at_1k := Obj.reachable_words (Obj.repr srv)
  done;
  let words = Obj.reachable_words (Obj.repr srv) in
  if words - !words_at_1k > 64 then
    Alcotest.failf "server grew from %d to %d words over %d more cycles"
      !words_at_1k words (cycles - 1_000);
  (* three live leases, one completed: a heartbeat renews the other two *)
  let t0 = now (cycles + 1) in
  let held =
    lease_tasks
      (Server.handle srv ~now:t0 (Wire.Lease_req { worker = 7; k = 3 }))
  in
  Alcotest.(check int) "three leased" 3 (Array.length held);
  ignore
    (Server.handle srv ~now:t0 (Wire.Complete { worker = 7; task = held.(0) }));
  ignore (Server.handle srv ~now:(t0 +. 0.001) (Wire.Heartbeat { worker = 7 }));
  Alcotest.(check int) "old deadlines are stale" 0
    (Server.expire srv ~now:(t0 +. 0.002));
  Alcotest.(check (float 1e-9)) "renewed to heartbeat + timeout" (t0 +. 0.003)
    (Server.next_expiry srv);
  Alcotest.(check int) "exactly the two live leases fire" 2
    (Server.expire srv ~now:(t0 +. 0.003));
  (* then a heartbeat from a new worker every cycle. The stamps live in
     a table pruned each time it doubles, so the size swings within a
     prune period; compare the peaks of two windows longer than one *)
  let window = 256 in
  let peak_early = ref 0 and peak_late = ref 0 in
  for i = 1 to cycles do
    let at = t0 +. now (i + 3) in
    cycle ~at;
    ignore (Server.handle srv ~now:at (Wire.Heartbeat { worker = 1_000 + i }));
    ignore (Server.expire srv ~now:at);
    let sample peak = peak := max !peak (Obj.reachable_words (Obj.repr srv)) in
    if i > 1_000 && i <= 1_000 + window then sample peak_early;
    if i > cycles - window then sample peak_late
  done;
  if !peak_late - !peak_early > 64 then
    Alcotest.failf "heartbeats grew the server from %d to %d words"
      !peak_early !peak_late;
  Alcotest.(check int) "every heartbeat counted" (cycles + 1)
    (Server.stats srv).Server.heartbeats

(* Heartbeats renew lazily: [expire] reads the holder's last stamp when
   a deadline pops. The reference renews eagerly, as a list of live
   leases whose deadlines every heartbeat moves. After every step the
   stats agree, and each expire fires exactly the leases due in the
   reference, each at its deadline there. Times step by multiples of a
   quarter, so deadlines tie and heartbeats land on them; a run of fresh
   worker ids fills the stamp table past its prune threshold *)
type model_op =
  | M_lease of int * int
  | M_complete of int
  | M_beat of int
  | M_fresh_beats of int
  | M_expire

let gen_model_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map2 (fun w k -> M_lease (w, k)) (int_bound 3) (int_range 1 3));
        (4, map (fun i -> M_complete i) (int_bound 1_000));
        (3, map (fun w -> M_beat w) (int_bound 3));
        (1, map (fun n -> M_fresh_beats n) (int_range 1 80));
        (3, return M_expire);
      ]
  in
  let dt = map (fun q -> float_of_int q *. 0.25) (int_bound 6) in
  list_size (int_range 1 120) (pair op dt)

type model_lease = { task : int; worker : int; mutable deadline : float }

let prop_lazy_renewal_matches_eager =
  QCheck.Test.make ~name:"lazy heartbeat renewal fires what eager renewal does"
    ~count:300
    (QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       gen_model_ops)
    (fun ops ->
      let tmo = 2.0 in
      let sink = Trace.create () in
      let srv =
        Server.create ~sink
          (Server.config ~n_shards:2 ~expected_s:1.0
             ~recovery:(Recovery.make ~timeout_factor:tmo ())
             ())
          (Mesh.out_mesh 4)
      in
      let leased = ref [] and seen = ref [] and done_ = ref [] in
      let leases = ref 0 and leased_tasks = ref 0 and completions = ref 0 in
      let duplicates = ref 0 and reissues = ref 0 and retries = ref 0 in
      let heartbeats = ref 0 and fresh = ref 100 in
      let now = ref 0.0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let step op =
        match op with
        | M_lease (worker, k) -> (
          match Server.handle srv ~now:!now (Wire.Lease_req { worker; k }) with
          | Wire.Lease { tasks; _ } ->
            incr leases;
            leased_tasks := !leased_tasks + Array.length tasks;
            Array.iter
              (fun task ->
                if not (List.mem task !seen) then seen := task :: !seen;
                leased := { task; worker; deadline = !now +. tmo } :: !leased)
              tasks
          | Wire.Retry_after _ -> incr retries
          | Wire.Done _ -> ()
          | _ -> fail "unexpected reply to a lease request")
        | M_complete i -> (
          match !seen with
          | [] -> ()
          | l ->
            let task = List.nth l (i mod List.length l) in
            ignore
              (Server.handle srv ~now:!now
                 (Wire.Complete { worker = 0; task }));
            if List.mem task !done_ then incr duplicates
            else begin
              incr completions;
              done_ := task :: !done_;
              leased := List.filter (fun l -> l.task <> task) !leased
            end)
        | M_beat worker ->
          incr heartbeats;
          ignore (Server.handle srv ~now:!now (Wire.Heartbeat { worker }));
          List.iter
            (fun l -> if l.worker = worker then l.deadline <- !now +. tmo)
            !leased
        | M_fresh_beats n ->
          for _ = 1 to n do
            incr heartbeats;
            incr fresh;
            ignore
              (Server.handle srv ~now:!now (Wire.Heartbeat { worker = !fresh }))
          done
        | M_expire ->
          Trace.clear sink;
          let fired = Server.expire srv ~now:!now in
          let got = ref [] in
          Trace.iter
            (fun e ->
              if e.Trace.kind = Trace.Timeout_fired then
                got := (e.Trace.a, e.Trace.time) :: !got)
            sink;
          let due, live =
            List.partition (fun l -> l.deadline <= !now) !leased
          in
          leased := live;
          reissues := !reissues + List.length due;
          let want = List.map (fun l -> (l.task, l.deadline)) due in
          if List.sort compare !got <> List.sort compare want then
            fail "expire at %g fired %d leases, the reference %d" !now
              (List.length !got) (List.length want);
          if fired <> List.length want then
            fail "expire at %g returned %d, fired %d" !now fired
              (List.length want);
          List.iter
            (fun l ->
              if Server.next_expiry srv > l.deadline then
                fail "next_expiry %g past a live deadline %g"
                  (Server.next_expiry srv) l.deadline)
            live
      in
      List.iter
        (fun (op, dt) ->
          now := !now +. dt;
          step op;
          let st = Server.stats srv in
          let want =
            [
              !leases; !leased_tasks; !completions; !duplicates; !reissues;
              !retries; !heartbeats; List.length !leased;
            ]
          in
          let got =
            [
              st.Server.leases; st.Server.leased_tasks; st.Server.completions;
              st.Server.duplicate_completes; st.Server.reissues;
              st.Server.retry_afters; st.Server.heartbeats; st.Server.inflight;
            ]
          in
          if got <> want then
            fail "stats at %g: [%s], the reference [%s]" !now
              (String.concat "; " (List.map string_of_int got))
              (String.concat "; " (List.map string_of_int want)))
        ops;
      true)

(* a grant allocates its reply and nothing else — the task array and
   the [Lease] block — however many leases the worker already holds, and
   a heartbeat allocates O(1) words however many it renews *)
let test_lease_path_allocation () =
  let srv =
    Server.create (Server.config ()) (Dag.make_exn ~n:1024 ~arcs:[] ())
  in
  let now = 100.0 in
  let words msg =
    let before = Gc.minor_words () in
    let reply = Server.handle srv ~now msg in
    (Gc.minor_words () -. before, reply)
  in
  let lease worker k =
    lease_tasks (Server.handle srv ~now (Wire.Lease_req { worker; k }))
  in
  (* grow the expiry heap past what the checks push, then pop the
     entries the completions leave behind *)
  for _ = 1 to 8 do
    Array.iter
      (fun task ->
        ignore
          (Server.handle srv ~now:0.0 (Wire.Complete { worker = 9; task })))
      (lease_tasks
         (Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 9; k = 64 })))
  done;
  ignore (Server.expire srv ~now:50.0);
  ignore (lease 1 8);
  List.iter
    (fun k ->
      let msg = Wire.Lease_req { worker = 1; k } in
      let w, reply = words msg in
      Alcotest.(check int) "granted" k (Array.length (lease_tasks reply));
      Alcotest.(check (float 0.0))
        (Printf.sprintf "k=%d: minor words = the reply's" k)
        (float_of_int (k + 1 + 3))
        w)
    [ 1; 8; 32 ];
  ignore (lease 2 32);
  let beat = Wire.Heartbeat { worker = 2 } in
  let first, _ = words beat in
  let again, _ = words beat in
  if first > 8.0 || again > 8.0 then
    Alcotest.failf "heartbeats over 32 leases allocated %g and %g words"
      first again

let test_protocol_errors_and_drain () =
  let srv = Server.create (Server.config ()) (tiny ()) in
  (* completing a still-blocked task is a violation *)
  (match Server.handle srv ~now:0.0 (Wire.Complete { worker = 1; task = 1 }) with
  | Wire.Ack -> ()
  | _ -> Alcotest.fail "expected Ack");
  (* as are out-of-range ids and server-side messages *)
  ignore (Server.handle srv ~now:0.0 (Wire.Complete { worker = 1; task = 99 }));
  ignore (Server.handle srv ~now:0.0 Wire.Ack);
  Alcotest.(check int) "errors counted" 3 (Server.stats srv).Server.protocol_errors;
  Alcotest.(check int) "nothing applied" 0 (Server.stats srv).Server.completions;
  (match Server.handle srv ~now:0.1 Wire.Drain with
  | Wire.Done _ -> ()
  | _ -> Alcotest.fail "expected Done");
  match Server.handle srv ~now:0.2 (Wire.Lease_req { worker = 1; k = 1 }) with
  | Wire.Done _ -> ()
  | _ -> Alcotest.fail "draining server still leases"

let test_sharded_run_spreads_leases () =
  let g = Mesh.out_mesh 20 in
  let n = Dag.n_nodes g in
  let live = Live.create () in
  let srv =
    Server.create ~live (Server.config ~n_shards:3 ~max_lease:16 ()) g
  in
  (* one greedy in-process worker drains the dag *)
  let continue = ref true in
  let now = ref 0.0 in
  let granted = Array.make 3 0 in
  while !continue do
    now := !now +. 0.001;
    match Server.handle srv ~now:!now (Wire.Lease_req { worker = 0; k = 16 }) with
    | Wire.Lease { tasks; _ } ->
      Array.iter
        (fun v ->
          let s = Server.shard_of srv v in
          granted.(s) <- granted.(s) + 1;
          ignore (Server.handle srv ~now:!now (Wire.Complete { worker = 0; task = v })))
        tasks
    | Wire.Done _ -> continue := false
    | Wire.Retry_after _ -> ()
    | _ -> Alcotest.fail "unexpected reply"
  done;
  let st = Server.stats srv in
  Alcotest.(check int) "every task applied once" n st.Server.completions;
  let shard_total = ref 0 in
  for s = 0 to 2 do
    let c =
      Live.counter_value
        (Live.counter live (Printf.sprintf "served.shard%d.leased" s))
    in
    if c = 0 then Alcotest.failf "shard %d never leased" s;
    Alcotest.(check int)
      (Printf.sprintf "shard %d counter = its granted tasks" s)
      granted.(s) c;
    shard_total := !shard_total + c
  done;
  Alcotest.(check int) "per-shard counters account for every leased task"
    st.Server.leased_tasks !shard_total

(* what a scrape sees is the server's own state: after every handle and
   every expire, each served.* counter and gauge read through Live equals
   Server.stats and the frontier depth. An expiry re-pools leases with
   no handle after it, so the gauges must not wait for one *)
let test_live_reads_server_state () =
  let g = Mesh.out_mesh 8 in
  let n = Dag.n_nodes g in
  let live = Live.create () in
  let srv =
    Server.create ~live
      (Server.config ~n_shards:2 ~max_lease:16 ~expected_s:1.0
         ~recovery:(Recovery.make ~timeout_factor:2.0 ())
         ())
      g
  in
  let c name = Live.counter_value (Live.counter live name) in
  let gauge name = int_of_float (Live.gauge_value (Live.gauge live name)) in
  let agree what =
    let st = Server.stats srv in
    Alcotest.(check (list int))
      (what ^ ": Live = stats")
      [
        st.Server.leases; st.Server.leased_tasks; st.Server.completions;
        st.Server.duplicate_completes; st.Server.reissues;
        st.Server.retry_afters; st.Server.heartbeats;
        st.Server.protocol_errors; st.Server.leased_tasks; st.Server.inflight;
        Server.frontier_depth srv;
      ]
      [
        c "served.leases"; c "served.leased_tasks"; c "served.completions";
        c "served.duplicate_completes"; c "served.reissues";
        c "served.retry_afters"; c "served.heartbeats";
        c "served.protocol_errors";
        c "served.shard0.leased" + c "served.shard1.leased";
        gauge "served.inflight"; gauge "served.frontier_depth";
      ]
  in
  let now = ref 0.0 in
  let leased = ref [] in
  let handle what msg =
    now := !now +. 0.01;
    let reply = Server.handle srv ~now:!now msg in
    (match reply with
    | Wire.Lease { tasks; _ } ->
      Array.iter (fun v -> leased := v :: !leased) tasks
    | _ -> ());
    agree what;
    reply
  in
  let expire () =
    let fired = Server.expire srv ~now:!now in
    agree (Printf.sprintf "expire at %g" !now);
    fired
  in
  agree "fresh";
  (* three levels of the mesh leased and completed leave four ready *)
  for _ = 1 to 3 do
    Array.iter
      (fun v ->
        ignore (handle "complete" (Wire.Complete { worker = 0; task = v })))
      (lease_tasks (handle "lease" (Wire.Lease_req { worker = 0; k = 16 })))
  done;
  Alcotest.(check int) "four leased" 4
    (Array.length
       (lease_tasks (handle "lease" (Wire.Lease_req { worker = 1; k = 16 }))));
  now := !now +. 100.0;
  Alcotest.(check int) "all four expire" 4 (expire ());
  (* then a seeded mix of every message kind and more expiries *)
  let rng = Random.State.make [| 22 |] in
  for _ = 1 to 400 do
    match Random.State.int rng 6 with
    | 0 | 1 ->
      ignore
        (handle "lease"
           (Wire.Lease_req
              {
                worker = Random.State.int rng 4;
                k = 1 + Random.State.int rng 4;
              }))
    | 2 -> (
      match !leased with
      | [] -> ()
      | l ->
        let v = List.nth l (Random.State.int rng (List.length l)) in
        ignore (handle "complete" (Wire.Complete { worker = 0; task = v })))
    | 3 ->
      ignore
        (handle "heartbeat"
           (Wire.Heartbeat { worker = Random.State.int rng 4 }))
    | 4 ->
      ignore (handle "bad task" (Wire.Complete { worker = 0; task = n + 5 }))
    | _ ->
      now := !now +. Random.State.float rng 3.0;
      ignore (expire ())
  done;
  let continue = ref true in
  while !continue do
    match handle "drain" (Wire.Lease_req { worker = 0; k = 16 }) with
    | Wire.Lease { tasks; _ } ->
      Array.iter
        (fun v ->
          ignore (handle "drain" (Wire.Complete { worker = 0; task = v })))
        tasks
    | Wire.Done _ -> continue := false
    | _ ->
      now := !now +. 100.0;
      ignore (expire ())
  done;
  let st = Server.stats srv in
  Alcotest.(check int) "drained exactly once" n st.Server.completions;
  Alcotest.(check bool)
    "leases expired on the way" true (st.Server.reissues > 4)

(* -------------------------------------------------- virtual load harness *)

let test_hammer_small_clean () =
  let g = Mesh.out_mesh 10 in
  let sink = Trace.create () in
  let scfg = Server.config ~n_shards:3 ~expected_s:0.1 () in
  let cfg = Hammer.config ~workers:100 ~k:4 ~mean_service_s:0.001 () in
  let r = Hammer.run_virtual ~sink ~server:scfg cfg g in
  Alcotest.(check int) "all tasks" (Dag.n_nodes g) r.Hammer.completed;
  Alcotest.(check int) "exactly once" (Dag.n_nodes g)
    r.Hammer.server.Server.completions;
  Alcotest.(check int) "no churn, no reissues" 0 r.Hammer.server.Server.reissues;
  (* trace tracks: every alloc/complete is stamped with its shard *)
  let bad = ref 0 in
  Trace.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Task_alloc | Trace.Task_complete ->
        if e.b < 0 || e.b >= 3 then incr bad
      | _ -> ())
    sink;
  Alcotest.(check int) "client ids are shard ids" 0 !bad;
  Alcotest.(check bool) "trace non-empty" true (Trace.length sink > 0)

(* a recorder is a sink like any other: the seeded churning run into a
   16-slot ring leaves exactly the last 16 events the same run writes
   into a memory trace, numbered one frame per event. Churn makes leases
   expire, so the stream carries timeouts as well as allocs, completes
   and samples *)
let test_flight_ring_is_sink_tail () =
  let path = Filename.temp_file "ic_test_served" ".ring" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let run sink =
        let scfg = Server.config ~n_shards:3 ~expected_s:0.02 () in
        let churn =
          Plan.make ~disconnect_rate:2.0 ~mean_downtime:0.2 ~seed:3 ()
        in
        let cfg =
          Hammer.config ~workers:40 ~k:4 ~mean_service_s:0.01 ~churn ~seed:5
            ()
        in
        Hammer.run_virtual ~sink ~server:scfg cfg (Mesh.out_mesh 16)
      in
      let sink = Trace.create () in
      let r = run sink in
      Alcotest.(check bool) "leases expired" true
        (r.Hammer.server.Server.reissues > 0);
      (match Trace.recorder ~slots:16 path with
      | Ok ring -> ignore (run ring)
      | Error e -> Alcotest.fail e);
      match Trace.load path with
      | Error e -> Alcotest.fail e
      | Ok d ->
        let k = Trace.length sink in
        Alcotest.(check (list int)) "one frame per sink event"
          (List.init 16 (fun i -> k - 15 + i))
          (Array.to_list (Array.map (fun f -> f.Trace.seq) d.Trace.events));
        Alcotest.(check bool) "ring = the sink's last 16 events" true
          (Array.map (fun f -> f.Trace.event) d.Trace.events
          = Array.sub (Trace.to_array sink) (k - 16) 16))

(* the acceptance run: mesh-256 (32,896 tasks), 10^4 churning workers,
   every task applied exactly once, metrics byte-identical across runs *)
let acceptance_run () =
  let g = Mesh.out_mesh 256 in
  let live = Live.create () in
  let scfg =
    Server.config ~n_shards:3 ~max_lease:64 ~expected_s:0.2 ~retry_after_s:0.2
      ~recovery:(Recovery.make ~timeout_factor:4.0 ())
      ()
  in
  let churn =
    Plan.make ~crash_rate:0.002 ~disconnect_rate:0.02 ~mean_downtime:0.5
      ~seed:11 ()
  in
  let cfg =
    Hammer.config ~workers:10_000 ~k:8 ~mean_service_s:0.01 ~think_s:0.001
      ~churn ~seed:42 ()
  in
  let r = Hammer.run_virtual ~live ~server:scfg cfg g in
  (r, Live.to_json live)

let test_mesh256_churn_exactly_once () =
  let r, json1 = acceptance_run () in
  let n = 257 * 258 / 2 in
  Alcotest.(check int) "dag size" n r.Hammer.n_tasks;
  Alcotest.(check int) "every task completed" n r.Hammer.completed;
  Alcotest.(check int) "each applied exactly once" n
    r.Hammer.server.Server.completions;
  Alcotest.(check bool) "churn crashed some workers" true (r.Hammer.crashed > 0);
  Alcotest.(check bool) "churn disconnected some workers" true
    (r.Hammer.disconnects > 0);
  Alcotest.(check bool) "dropped leases were re-issued" true
    (r.Hammer.server.Server.reissues > 0);
  Alcotest.(check int) "nothing left in flight" 0
    r.Hammer.server.Server.inflight;
  Alcotest.(check bool) "virtual makespan positive" true (r.Hammer.makespan_s > 0.0);
  (* byte-determinism: an identically seeded run dumps identical metrics *)
  let r2, json2 = acceptance_run () in
  Alcotest.(check string) "metrics JSON byte-identical" json1 json2;
  Alcotest.(check (float 0.0)) "same virtual makespan" r.Hammer.makespan_s
    r2.Hammer.makespan_s

(* the virtual loop packs a worker id into a 30-bit field of an
   immediate event: a fleet one past the field would alias workers *)
let test_config_bounds_workers () =
  let ok n = (Hammer.config ~workers:n ()).Hammer.workers in
  Alcotest.(check int) "the field's width" (1 lsl 30) Hammer.max_workers;
  Alcotest.(check int) "one below the bound" (Hammer.max_workers - 1)
    (ok (Hammer.max_workers - 1));
  Alcotest.(check int) "the bound itself fits" Hammer.max_workers
    (ok Hammer.max_workers);
  match Hammer.config ~workers:(Hammer.max_workers + 1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a fleet past the worker field was accepted"

(* the busy accounting, pinned as the sum of the per-worker busy times
   (in worker order) and the number of workers that were ever busy *)
let check_busy_checksum sum workers busy_s =
  Alcotest.(check (float 0.0))
    "busy_s sum" sum
    (Array.fold_left ( +. ) 0.0 busy_s);
  Alcotest.(check int)
    "workers with busy_s > 0" workers
    (Array.fold_left (fun n b -> if b > 0.0 then n + 1 else n) 0 busy_s)

(* one seeded churning run, pinned to recorded constants: reruns of one
   binary agree with each other even after a change that reorders the
   run's events, so only constants catch such a change *)
let test_pinned_virtual_run () =
  let g = Mesh.out_mesh 32 in
  let scfg =
    Server.config ~n_shards:3 ~max_lease:16 ~expected_s:0.05 ~retry_after_s:0.05
      ~recovery:(Recovery.make ~timeout_factor:4.0 ())
      ()
  in
  let churn =
    Plan.make ~crash_rate:0.2 ~disconnect_rate:2.0 ~mean_downtime:0.1 ~seed:5 ()
  in
  let cfg =
    Hammer.config ~workers:200 ~k:4 ~mean_service_s:0.01 ~think_s:0.001 ~churn
      ~seed:77 ()
  in
  let r = Hammer.run_virtual ~server:scfg cfg g in
  Alcotest.(check (float 0.0))
    "makespan" 0x1.39998184d06dbp+0 r.Hammer.makespan_s;
  Alcotest.(check (list int)) "completed, crashed, disconnects" [ 561; 47; 363 ]
    [ r.Hammer.completed; r.Hammer.crashed; r.Hammer.disconnects ];
  Alcotest.(check (float 0.0))
    "grant p50" 0x1.99999999999ap-5 r.Hammer.lease_grant_p50_s;
  Alcotest.(check (float 0.0))
    "grant p99" 0x1.6666666666668p-1 r.Hammer.lease_grant_p99_s;
  Alcotest.(check (float 0.0))
    "service p50" 0x1.fce2a42d9c9cp-8 r.Hammer.task_service_p50_s;
  Alcotest.(check (float 0.0))
    "service p99" 0x1.8419d78f4be6p-5 r.Hammer.task_service_p99_s;
  check_busy_checksum 0x1.2a7cabd39d85dp+2 152 r.Hammer.busy_s;
  let s = r.Hammer.server in
  Alcotest.(check bool) "server stats" true
    (s
    = {
        Server.leases = 356;
        leased_tasks = 575;
        completions = 561;
        duplicate_completes = 0;
        reissues = 14;
        retry_afters = 3784;
        heartbeats = 0;
        protocol_errors = 0;
        inflight = 0;
        recovered_reissues = 0;
        recovered_tasks = 0;
      })

(* telemetry must not perturb the run it watches: the same seeded
   virtual run with and without a Live registry reaches identical
   results, two registries filled by identical runs dump byte-identical
   JSON, and the registry agrees with the server's own stats once the
   run is over *)
let test_live_mirror_preserves_determinism () =
  let run ?live () =
    let g = Mesh.out_mesh 64 in
    let scfg =
      Server.config ~n_shards:3 ~max_lease:64 ~expected_s:0.2
        ~retry_after_s:0.2
        ~recovery:(Recovery.make ~timeout_factor:4.0 ())
        ()
    in
    let churn =
      Plan.make ~crash_rate:0.002 ~disconnect_rate:0.02 ~mean_downtime:0.5
        ~seed:11 ()
    in
    let cfg =
      Hammer.config ~workers:2_000 ~k:8 ~mean_service_s:0.01 ~think_s:0.001
        ~churn ~seed:42 ()
    in
    Hammer.run_virtual ?live ~server:scfg cfg g
  in
  let r_bare = run () in
  let live = Live.create () in
  let r_live = run ~live () in
  let again = Live.create () in
  let _ = run ~live:again () in
  Alcotest.(check string)
    "live JSON byte-identical across identical runs" (Live.to_json live)
    (Live.to_json again);
  Alcotest.(check int) "same completions" r_bare.Hammer.completed
    r_live.Hammer.completed;
  Alcotest.(check (float 0.0)) "same virtual makespan" r_bare.Hammer.makespan_s
    r_live.Hammer.makespan_s;
  Alcotest.(check bool) "same server stats" true
    (r_bare.Hammer.server = r_live.Hammer.server);
  (* the registry itself is exact once quiescent *)
  let lc name = Live.counter_value (Live.counter live name) in
  let st = r_live.Hammer.server in
  Alcotest.(check int) "live leases = stats" st.Server.leases
    (lc "served.leases");
  Alcotest.(check int) "live leased_tasks = stats" st.Server.leased_tasks
    (lc "served.leased_tasks");
  Alcotest.(check int) "live completions = stats" st.Server.completions
    (lc "served.completions");
  Alcotest.(check int) "live reissues = stats" st.Server.reissues
    (lc "served.reissues");
  Alcotest.(check int) "live retry_afters = stats" st.Server.retry_afters
    (lc "served.retry_afters");
  let s =
    Live.histogram_snapshot (Live.histogram live "served.lease_service_s")
  in
  Alcotest.(check int) "one service observation per completion"
    st.Server.completions s.Live.count;
  let u =
    Live.histogram_snapshot (Live.histogram live "served.worker_utilization")
  in
  Alcotest.(check int) "one utilization observation per worker" 2_000
    u.Live.count;
  (* rerunning against the same registry doubles the counters — the
     registry accumulates, it is not reset per run *)
  let _ = run ~live () in
  Alcotest.(check int) "registry accumulates across runs"
    (2 * st.Server.completions)
    (lc "served.completions")

(* --------------------------------------------------- journal + recovery *)

module Journal = Ic_served.Journal
module Chaos = Ic_served.Chaos
module Wire_plan = Ic_fault.Plan.Wire

let tmp_journal () = Filename.temp_file "ic_test_journal" ".wal"

let with_tmp f =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_exn ?fsync ?checkpoint_every path =
  match Journal.open_ ?fsync ?checkpoint_every path with
  | Ok j -> j
  | Error e -> Alcotest.failf "Journal.open_: %s" e

(* one greedy in-process worker drains whatever the server will lease *)
let greedy_drain ?(now0 = 0.0) ?(k = 16) srv =
  let now = ref now0 in
  let continue = ref true in
  while !continue do
    now := !now +. 0.001;
    match Server.handle srv ~now:!now (Wire.Lease_req { worker = 0; k }) with
    | Wire.Lease { tasks; _ } ->
      Array.iter
        (fun v ->
          ignore
            (Server.handle srv ~now:!now (Wire.Complete { worker = 0; task = v })))
        tasks
    | Wire.Done _ -> continue := false
    | Wire.Retry_after _ -> ()
    | _ -> Alcotest.fail "unexpected reply"
  done

let read_bytes path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let append_raw path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_journal_roundtrip () =
  with_tmp @@ fun path ->
  let j = open_exn path in
  let done_ = Bytes.make (Journal.bitmap_len 10) '\000' in
  Bytes.set done_ 0 '\x05';
  let leased = Bytes.make (Journal.bitmap_len 10) '\000' in
  Bytes.set leased 1 '\x02';
  let records =
    [
      Journal.Lease [| 0; 7; 0xFFFF |];
      Journal.Complete 7;
      Journal.Checkpoint { n = 10; done_; leased };
      Journal.Complete 0;
      Journal.Lease [||];
    ]
  in
  List.iter (Journal.append j) records;
  Journal.close j;
  let j = open_exn path in
  Alcotest.(check int) "nothing truncated" 0 (Journal.truncated_bytes j);
  if Journal.replayed j <> records then Alcotest.fail "replay differs";
  Journal.close j

let test_journal_torn_tail_truncated () =
  with_tmp @@ fun path ->
  let j = open_exn path in
  Journal.append j (Journal.Complete 1);
  Journal.append j (Journal.Complete 2);
  Journal.close j;
  let intact = Bytes.length (read_bytes path) in
  (* a torn final record: a length prefix promising more than is there *)
  append_raw path "\x40\x00\x00\x00\xDE\xAD\xBE\xEFtorn";
  let j = open_exn path in
  Alcotest.(check bool) "tail dropped" true (Journal.truncated_bytes j > 0);
  if Journal.replayed j <> [ Journal.Complete 1; Journal.Complete 2 ] then
    Alcotest.fail "intact prefix lost";
  Journal.close j;
  Alcotest.(check int) "file physically truncated" intact
    (Bytes.length (read_bytes path));
  (* idempotent: a second open sees a clean file *)
  let j = open_exn path in
  Alcotest.(check int) "clean reopen" 0 (Journal.truncated_bytes j);
  Journal.close j

let test_journal_corrupt_crc_truncates_from_there () =
  with_tmp @@ fun path ->
  let j = open_exn path in
  List.iter (fun v -> Journal.append j (Journal.Complete v)) [ 1; 2; 3 ];
  Journal.close j;
  let b = read_bytes path in
  (* flip a bit inside the second record's payload: 8-byte magic, then
     records of 8-byte header + 5-byte Complete payload *)
  let off = 8 + 13 + 8 + 2 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
  write_bytes path b;
  let j = open_exn path in
  Alcotest.(check bool) "corrupt record dropped" true
    (Journal.truncated_bytes j > 0);
  if Journal.replayed j <> [ Journal.Complete 1 ] then
    Alcotest.fail "replay should stop at the corrupt record";
  Journal.close j

let test_recover_small_reissues_and_finishes () =
  with_tmp @@ fun path ->
  let j = open_exn path in
  let srv = Server.create ~journal:j (Server.config ()) (tiny ()) in
  (* complete the source, lease both children, complete only one *)
  ignore (Server.handle srv ~now:0.0 (Wire.Lease_req { worker = 1; k = 8 }));
  ignore (Server.handle srv ~now:0.1 (Wire.Complete { worker = 1; task = 0 }));
  let t = lease_tasks (Server.handle srv ~now:0.2 (Wire.Lease_req { worker = 1; k = 8 })) in
  Alcotest.(check int) "both children leased" 2 (Array.length t);
  ignore (Server.handle srv ~now:0.3 (Wire.Complete { worker = 1; task = t.(0) }));
  (* crash: the server object is dropped, the journal survives *)
  Journal.close j;
  let j = open_exn path in
  (* a fresh create on a dirty journal must refuse *)
  (match Server.create ~journal:j (Server.config ()) (tiny ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted a journal with prior records");
  let srv =
    match Server.recover ~journal:j (Server.config ()) (tiny ()) with
    | Ok s -> s
    | Error e -> Alcotest.failf "recover: %s" e
  in
  let st = Server.stats srv in
  Alcotest.(check int) "completions restored" 2 st.Server.completions;
  Alcotest.(check int) "recovered_tasks" 2 st.Server.recovered_tasks;
  Alcotest.(check int) "the un-journaled lease re-issues" 1
    st.Server.recovered_reissues;
  greedy_drain ~now0:1.0 srv;
  Alcotest.(check bool) "drains to done" true (Server.is_done srv);
  Alcotest.(check int) "exactly once overall" 3
    (Server.stats srv).Server.completions;
  Journal.close j

(* crash-at-any-byte property: take a full drain's journal, cut it at an
   arbitrary byte (record boundary, mid-record, mid-header), recover,
   drain again — every cut must yield exactly-once completion *)
let prop_recover_any_cut =
  let g = Mesh.out_mesh 8 in
  let n = Dag.n_nodes g in
  let reference =
    lazy
      (with_tmp @@ fun path ->
       let j = open_exn ~checkpoint_every:16 path in
       let srv = Server.create ~journal:j (Server.config ~n_shards:2 ()) g in
       greedy_drain srv;
       Journal.close j;
       read_bytes path)
  in
  QCheck.Test.make ~name:"recovery after a crash at any journal byte" ~count:80
    QCheck.(int_range 8 4096)
    (fun cut ->
      let full = Lazy.force reference in
      let cut = min cut (Bytes.length full) in
      with_tmp @@ fun path ->
      write_bytes path (Bytes.sub full 0 cut);
      let j = open_exn ~checkpoint_every:16 path in
      let srv =
        match Server.recover ~journal:j (Server.config ~n_shards:2 ()) g with
        | Ok s -> s
        | Error e -> QCheck.Test.fail_reportf "recover at cut %d: %s" cut e
      in
      greedy_drain ~now0:10.0 srv;
      let st = Server.stats srv in
      Journal.close j;
      Server.is_done srv && st.Server.completions = n
      && st.Server.inflight = 0)

(* ------------------------------------------- group commit and rotation *)

(* lease [k] tasks at a time and complete them until [completions] are
   applied; the rest of the last batch stays leased *)
let partial_drain ?(batch = fun f -> f ()) ~completions srv =
  let now = ref 0.0 and completed = ref 0 in
  while !completed < completions do
    now := !now +. 0.001;
    batch (fun () ->
        match Server.handle srv ~now:!now (Wire.Lease_req { worker = 0; k = 4 }) with
        | Wire.Lease { tasks; _ } ->
          Array.iter
            (fun v ->
              if !completed < completions then begin
                ignore
                  (Server.handle srv ~now:!now (Wire.Complete { worker = 0; task = v }));
                incr completed
              end)
            tasks
        | Wire.Retry_after _ ->
          now := !now +. 100.0;
          ignore (Server.expire srv ~now:!now)
        | _ -> Alcotest.fail "drain starved")
  done

let test_grouped_drain_same_bytes () =
  let g = Mesh.out_mesh 12 in
  let n = Dag.n_nodes g in
  let drain ~grouped =
    with_tmp @@ fun path ->
    (* no checkpoint: when a deferred one lands depends on the disk *)
    let j = open_exn ~checkpoint_every:1_000_000 path in
    let srv = Server.create ~journal:j (Server.config ~n_shards:2 ()) g in
    let batch f = if grouped then Journal.group j f else f () in
    partial_drain ~batch ~completions:n srv;
    let st = Journal.stats j in
    Journal.close j;
    (read_bytes path, st)
  in
  let plain, plain_st = drain ~grouped:false in
  let grouped, grouped_st = drain ~grouped:true in
  Alcotest.(check bool) "same bytes on disk" true (Bytes.equal plain grouped);
  Alcotest.(check int) "same appends" plain_st.Journal.appends
    grouped_st.Journal.appends;
  Alcotest.(check int) "same bytes counted" plain_st.Journal.bytes
    grouped_st.Journal.bytes;
  Alcotest.(check int) "ungrouped: one write per append"
    plain_st.Journal.appends plain_st.Journal.writes;
  Alcotest.(check bool) "grouped: fewer writes" true
    (grouped_st.Journal.writes < plain_st.Journal.writes)

let test_group_flushes_when_body_raises () =
  with_tmp @@ fun path ->
  let j = open_exn path in
  let before = Bytes.length (read_bytes path) in
  (match
     Journal.group j (fun () ->
         Journal.append j (Journal.Complete 1);
         Journal.append j (Journal.Complete 2);
         Alcotest.(check int) "staged, not yet written" before
           (Bytes.length (read_bytes path));
         raise Exit)
   with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Exit -> ());
  (* 13 bytes a Complete record: 8 of header, 5 of payload *)
  Alcotest.(check int) "both records reached the OS" (before + 26)
    (Bytes.length (read_bytes path));
  Alcotest.(check int) "one write" 1 (Journal.stats j).Journal.writes;
  Journal.close j;
  let j = open_exn path in
  if Journal.replayed j <> [ Journal.Complete 1; Journal.Complete 2 ] then
    Alcotest.fail "replay differs";
  Journal.close j

let test_writes_count_groups () =
  with_tmp @@ fun path ->
  let j = open_exn path in
  for g = 1 to 10 do
    Journal.group j (fun () ->
        for i = 1 to g do
          Journal.append j (Journal.Complete i)
        done;
        (* a nested group does not write on its own *)
        Journal.group j (fun () -> Journal.append j (Journal.Lease [| g |])))
  done;
  (* a group that appends nothing writes nothing *)
  Journal.group j ignore;
  let st = Journal.stats j in
  Alcotest.(check int) "appends" (55 + 10) st.Journal.appends;
  Alcotest.(check int) "one write per group" 10 st.Journal.writes;
  Alcotest.(check int) "bytes" ((55 * 13) + (10 * 15)) st.Journal.bytes;
  Journal.append j (Journal.Complete 0);
  Alcotest.(check int) "an ungrouped append is a write" 11
    (Journal.stats j).Journal.writes;
  Journal.close j

let test_grouped_append_allocates_nothing () =
  with_tmp @@ fun path ->
  let j = open_exn path in
  let r = Journal.Complete 7 in
  let words =
    Journal.group j (fun () ->
        let before = Gc.minor_words () in
        for _ = 1 to 1000 do
          Journal.append j r
        done;
        Gc.minor_words () -. before)
  in
  Alcotest.(check (float 0.0)) "minor words over 1000 appends" 0.0 words;
  Journal.close j;
  Alcotest.(check int) "all written" 1000
    (List.length (Journal.replayed (open_exn path)))

let test_writer_outlives_its_journal () =
  with_tmp @@ fun path ->
  let prev = path ^ ".prev" and tmp = path ^ ".tmp" in
  let bl = Journal.bitmap_len 8 in
  let checkpoint j =
    Journal.checkpoint j ~n:8 ~done_:(Bytes.make bl '\000')
      ~leased:(Bytes.make bl '\000')
  in
  let j = open_exn path in
  for _ = 1 to 20 do
    checkpoint j;
    (* a later open_ got there first: PATH.prev is gone before the
       writer comes to unlink it *)
    try Sys.remove prev with Sys_error _ -> ()
  done;
  Alcotest.(check bool) "rotated" true ((Journal.stats j).Journal.checkpoints >= 1);
  (* close waits for the writer: it would hang had the writer died *)
  Journal.close j;
  (* a server dropped without close: its writer may still be running
     while the next open settles the rotation it left *)
  let dropped = open_exn path in
  checkpoint dropped;
  let j = open_exn path in
  Alcotest.(check bool) "settled: no PATH.prev" false (Sys.file_exists prev);
  checkpoint j;
  Journal.close j;
  Alcotest.(check bool) "no PATH.prev after close" false (Sys.file_exists prev);
  Alcotest.(check bool) "no PATH.tmp after close" false (Sys.file_exists tmp);
  let j = open_exn path in
  (match Journal.replayed j with
  | [ Journal.Checkpoint { n = 8; _ } ] -> ()
  | _ -> Alcotest.fail "the rotated journal is not one checkpoint");
  Journal.close j

(* the on-disk states a rotation can leave, built from the two files it
   moves between: OLD, the journal before a checkpoint, and NEW, the
   rotated file (its leading checkpoint and the records after it) *)
let rotation_fixture =
  lazy
    (let g = Mesh.out_mesh 8 in
     let k = 20 in
     let run ~checkpoint_every ~completions path =
       let j = open_exn ~checkpoint_every path in
       let srv = Server.create ~journal:j (Server.config ~n_shards:2 ()) g in
       partial_drain ~completions srv;
       Journal.close j;
       read_bytes path
     in
     let old = with_tmp (run ~checkpoint_every:1_000_000 ~completions:k) in
     let new_ = with_tmp (run ~checkpoint_every:k ~completions:(k + 10)) in
     (* magic, then a Checkpoint record: 8 + 5 + 2 * bitmap bytes *)
     let ckpt_end = 8 + 8 + 5 + (2 * Journal.bitmap_len (Dag.n_nodes g)) in
     (g, k, old, new_, ckpt_end))

let rotation_states =
  [|
    "partial PATH.tmp";
    "link made, no rename";
    "renamed, PATH.prev still there";
    "torn leading checkpoint beside PATH.prev";
    "PATH cut at any byte beside PATH.prev";
    "PATH missing beside PATH.prev";
  |]

let prop_recover_any_rotation_state =
  QCheck.Test.make ~name:"recovery from any state a rotation leaves" ~count:120
    QCheck.(pair (int_bound (Array.length rotation_states - 1)) (int_bound 10_000))
    (fun (state, cut) ->
      let g, k, old, new_, ckpt_end = Lazy.force rotation_fixture in
      let n = Dag.n_nodes g in
      with_tmp @@ fun path ->
      let prev = path ^ ".prev" and tmp = path ^ ".tmp" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ prev; tmp ])
      @@ fun () ->
      let prefix b len = Bytes.sub b 0 (min len (Bytes.length b)) in
      (* how many completions the state must give back *)
      let expect =
        match state with
        | 0 ->
          write_bytes path old;
          write_bytes tmp (prefix new_ (cut mod ckpt_end));
          `Exactly k
        | 1 ->
          write_bytes path old;
          Unix.link path prev;
          write_bytes tmp (prefix new_ ckpt_end);
          `Exactly k
        | 2 ->
          write_bytes path new_;
          write_bytes prev old;
          `Exactly (k + 10)
        | 3 ->
          write_bytes path (prefix new_ (cut mod ckpt_end));
          write_bytes prev old;
          `Exactly k
        | 4 ->
          write_bytes path (prefix new_ (cut mod (Bytes.length new_ + 1)));
          write_bytes prev old;
          `At_least k
        | _ ->
          Sys.remove path;
          write_bytes prev old;
          `Exactly k
      in
      let j = open_exn ~checkpoint_every:16 path in
      if Sys.file_exists prev || Sys.file_exists tmp then
        QCheck.Test.fail_reportf "%s: open_ left PATH.prev or PATH.tmp"
          rotation_states.(state);
      let srv =
        match Server.recover ~journal:j (Server.config ~n_shards:2 ()) g with
        | Ok s -> s
        | Error e ->
          QCheck.Test.fail_reportf "%s, cut %d: %s" rotation_states.(state) cut e
      in
      let recovered = (Server.stats srv).Server.recovered_tasks in
      (match expect with
      | `Exactly e when recovered <> e ->
        QCheck.Test.fail_reportf "%s, cut %d: recovered %d, expected %d"
          rotation_states.(state) cut recovered e
      | `At_least e when recovered < e ->
        QCheck.Test.fail_reportf "%s, cut %d: recovered %d < %d"
          rotation_states.(state) cut recovered e
      | _ -> ());
      greedy_drain ~now0:10.0 srv;
      let st = Server.stats srv in
      Journal.close j;
      Server.is_done srv && st.Server.completions = n && st.Server.inflight = 0
      && (not (Sys.file_exists prev))
      && not (Sys.file_exists tmp))

(* the tentpole acceptance: mesh-256 under a 10^4-worker churning fleet,
   killed mid-drain, recovered from the torn journal, drained to
   exactly-once — twice, byte-identically *)
let test_mesh256_kill_recover_exactly_once () =
  let g = Mesh.out_mesh 256 in
  let n = Dag.n_nodes g in
  with_tmp @@ fun path ->
  (* phase 1: a partial drain with leases still outstanding at the kill *)
  let j = open_exn ~checkpoint_every:1024 path in
  let srv = Server.create ~journal:j (Server.config ~n_shards:3 ~max_lease:64 ()) g in
  let now = ref 0.0 in
  let phase1 = ref 0 in
  while !phase1 < n / 2 do
    now := !now +. 0.001;
    match Server.handle srv ~now:!now (Wire.Lease_req { worker = 0; k = 64 }) with
    | Wire.Lease { tasks; _ } ->
      (* complete all but the last task of each multi-task batch:
         leased-but-never-journaled work is what the kill strands *)
      let keep = if Array.length tasks > 1 then Array.length tasks - 1 else 1 in
      Array.iteri
        (fun i v ->
          if i < keep && !phase1 < n / 2 then begin
            ignore
              (Server.handle srv ~now:!now (Wire.Complete { worker = 0; task = v }));
            incr phase1
          end)
        tasks
    | Wire.Retry_after _ ->
      (* every ready task is stranded under a lease: jump past the
         expiry so re-issue unblocks the drain *)
      now := !now +. 100.0;
      ignore (Server.expire srv ~now:!now)
    | _ -> Alcotest.fail "phase 1 starved before the kill point"
  done;
  (* one final lease that is never completed: guarantees journaled
     leased-but-not-done state at the kill *)
  (match Server.handle srv ~now:(!now +. 0.001) (Wire.Lease_req { worker = 1; k = 8 }) with
  | Wire.Lease _ -> ()
  | _ -> Alcotest.fail "no lease left to strand");
  let killed_at = (Server.stats srv).Server.completions in
  (* kill -9: no close, no flush beyond the per-record ones; worse, a
     torn half-record sits at the tail *)
  append_raw path "\xFF\xFF\x00\x00half";
  let run () =
    let live = Live.create () in
    let j = open_exn ~checkpoint_every:1024 path in
    let srv =
      match
        Server.recover ~live ~journal:j
          (Server.config ~n_shards:3 ~max_lease:64 ~expected_s:0.2
             ~retry_after_s:0.2
             ~recovery:(Recovery.make ~timeout_factor:4.0 ())
             ())
          g
      with
      | Ok s -> s
      | Error e -> Alcotest.failf "recover: %s" e
    in
    let st0 = Server.stats srv in
    Alcotest.(check int) "journaled completions survive the kill" killed_at
      st0.Server.recovered_tasks;
    Alcotest.(check bool) "stranded leases re-issue" true
      (st0.Server.recovered_reissues > 0);
    let churn =
      Plan.make ~crash_rate:0.002 ~disconnect_rate:0.02 ~mean_downtime:0.5
        ~seed:11 ()
    in
    let cfg =
      Hammer.config ~workers:10_000 ~k:8 ~mean_service_s:0.01 ~think_s:0.001
        ~churn ~seed:42 ()
    in
    let r = Hammer.drive ~live srv cfg in
    Journal.close j;
    Alcotest.(check int) "recovered completions primed the counter" n
      (Live.counter_value (Live.counter live "served.completions"));
    (r, Live.to_json live)
  in
  (* recovery must not consume the journal: snapshot it so the second,
     determinism-checking run replays the identical file *)
  let snapshot = read_bytes path in
  let r, json1 = run () in
  Alcotest.(check int) "every task applied exactly once" n r.Hammer.completed;
  Alcotest.(check int) "server agrees" n r.Hammer.server.Server.completions;
  Alcotest.(check int) "nothing in flight" 0 r.Hammer.server.Server.inflight;
  Alcotest.(check bool) "churn still crashed workers" true (r.Hammer.crashed > 0);
  write_bytes path snapshot;
  let r2, json2 = run () in
  Alcotest.(check int) "second recovery also exact" n r2.Hammer.completed;
  Alcotest.(check string) "byte-identical metrics across recoveries" json1
    json2

(* ------------------------------------------------------------ wire chaos *)

let chaos_run ~wire () =
  let g = Mesh.out_mesh 64 in
  let live = Live.create () in
  let scfg =
    Server.config ~n_shards:3 ~max_lease:64 ~expected_s:0.2 ~retry_after_s:0.2
      ~recovery:(Recovery.make ~timeout_factor:4.0 ())
      ()
  in
  let cfg =
    Hammer.config ~workers:1_000 ~k:8 ~mean_service_s:0.01 ~think_s:0.001
      ~seed:42 ()
  in
  let r = Hammer.run_chaos ~live ~server:scfg ~wire ~reply_timeout_s:0.5 cfg g in
  (r, Live.to_json live)

let test_chaos_hostile_wire_exactly_once () =
  let wire =
    Wire_plan.make ~drop:0.02 ~corrupt:0.02 ~truncate:0.01 ~duplicate:0.02
      ~reorder:0.02 ~delay_mean:0.005 ~seed:0xC4A0 ()
  in
  let g_n = Dag.n_nodes (Mesh.out_mesh 64) in
  let r, json1 = chaos_run ~wire () in
  Alcotest.(check int) "all tasks complete through the hostile wire" g_n
    r.Hammer.base.Hammer.completed;
  Alcotest.(check int) "exactly once" g_n
    r.Hammer.base.Hammer.server.Server.completions;
  Alcotest.(check int) "nothing in flight" 0
    r.Hammer.base.Hammer.server.Server.inflight;
  let c2s = r.Hammer.c2s and s2c = r.Hammer.s2c in
  Alcotest.(check bool) "frames flowed both ways" true
    (c2s.Chaos.frames > 0 && s2c.Chaos.frames > 0);
  Alcotest.(check bool) "drops happened" true
    (c2s.Chaos.dropped + s2c.Chaos.dropped > 0);
  Alcotest.(check bool) "corruption happened" true
    (c2s.Chaos.corrupted + s2c.Chaos.corrupted > 0);
  Alcotest.(check bool) "truncation happened" true
    (c2s.Chaos.truncated + s2c.Chaos.truncated > 0);
  Alcotest.(check bool) "the reader hit (and survived) errors" true
    (c2s.Chaos.reader_errors + s2c.Chaos.reader_errors
     + c2s.Chaos.resyncs + s2c.Chaos.resyncs
    > 0);
  Alcotest.(check bool) "timeouts re-sent requests" true (r.Hammer.retries > 0);
  (* the whole gauntlet is a pure function of the seeds *)
  let r2, json2 = chaos_run ~wire () in
  Alcotest.(check string) "byte-identical metrics across reruns" json1 json2;
  Alcotest.(check int) "same retry count" r.Hammer.retries r2.Hammer.retries

let test_chaos_none_is_transparent () =
  let r, _ = chaos_run ~wire:Wire_plan.none () in
  let n = Dag.n_nodes (Mesh.out_mesh 64) in
  Alcotest.(check int) "clean wire completes" n r.Hammer.base.Hammer.completed;
  let c2s = r.Hammer.c2s in
  Alcotest.(check int) "nothing dropped" 0 c2s.Chaos.dropped;
  Alcotest.(check int) "every frame delivered" c2s.Chaos.frames
    c2s.Chaos.delivered

(* one seeded churning run through a hostile wire, pinned to recorded
   constants like [test_pinned_virtual_run]: a change that reorders the
   chaos loop's events shows here even when reruns agree *)
let test_pinned_chaos_run () =
  let g = Mesh.out_mesh 32 in
  let scfg =
    Server.config ~n_shards:3 ~max_lease:16 ~expected_s:0.05 ~retry_after_s:0.05
      ~recovery:(Recovery.make ~timeout_factor:4.0 ())
      ()
  in
  let churn =
    Plan.make ~crash_rate:0.2 ~disconnect_rate:2.0 ~mean_downtime:0.1 ~seed:5 ()
  in
  let cfg =
    Hammer.config ~workers:200 ~k:4 ~mean_service_s:0.01 ~think_s:0.001 ~churn
      ~seed:77 ()
  in
  let wire =
    Wire_plan.make ~drop:0.02 ~corrupt:0.02 ~truncate:0.01 ~duplicate:0.02
      ~reorder:0.02 ~delay_mean:0.005 ~seed:0xC4A0 ()
  in
  let r = Hammer.run_chaos ~server:scfg ~wire ~reply_timeout_s:0.5 cfg g in
  let b = r.Hammer.base in
  Alcotest.(check (float 0.0))
    "makespan" 0x1.77892ed24d088p+2 b.Hammer.makespan_s;
  Alcotest.(check (float 0.0))
    "grant p50" 0x1.00d4ffc34ebap-3 b.Hammer.lease_grant_p50_s;
  Alcotest.(check (float 0.0))
    "grant p99" 0x1.68d5fc705cb86p+0 b.Hammer.lease_grant_p99_s;
  Alcotest.(check (float 0.0))
    "service p50" 0x1.d19ad1f771fp-8 b.Hammer.task_service_p50_s;
  Alcotest.(check (float 0.0))
    "service p99" 0x1.0cee2aecc4cd2p-1 b.Hammer.task_service_p99_s;
  Alcotest.(check (list int))
    "completed, crashed, disconnects, retries" [ 561; 131; 1184; 295 ]
    [
      b.Hammer.completed; b.Hammer.crashed; b.Hammer.disconnects;
      r.Hammer.retries;
    ];
  Alcotest.(check (list int))
    "c2s and s2c frames, dropped" [ 7008; 149; 6637; 127 ]
    [ r.Hammer.c2s.Chaos.frames; r.Hammer.c2s.Chaos.dropped;
      r.Hammer.s2c.Chaos.frames; r.Hammer.s2c.Chaos.dropped ];
  check_busy_checksum 0x1.53641418f8ec6p+5 138 b.Hammer.busy_s;
  Alcotest.(check bool) "server stats" true
    (b.Hammer.server
    = {
        Server.leases = 495;
        leased_tasks = 731;
        completions = 561;
        duplicate_completes = 48;
        reissues = 170;
        retry_afters = 5567;
        heartbeats = 0;
        protocol_errors = 13;
        inflight = 0;
        recovered_reissues = 0;
        recovered_tasks = 0;
      })

(* the metrics artifacts of three seeded served runs, pinned to recorded
   MD5s of their [Live.to_json]: how the registry learns a count may
   change, what it dumps may not *)
let pinned_scfg () =
  Server.config ~n_shards:3 ~max_lease:16 ~expected_s:0.05 ~retry_after_s:0.05
    ~recovery:(Recovery.make ~timeout_factor:4.0 ())
    ()

let pinned_fleet () =
  let churn =
    Plan.make ~crash_rate:0.2 ~disconnect_rate:2.0 ~mean_downtime:0.1 ~seed:5 ()
  in
  Hammer.config ~workers:200 ~k:4 ~mean_service_s:0.01 ~think_s:0.001 ~churn
    ~seed:77 ()

let digest json = Digest.to_hex (Digest.string json)

let test_pinned_live_json () =
  let g = Mesh.out_mesh 32 in
  let n = Dag.n_nodes g in
  let virtual_json =
    let live = Live.create () in
    let r =
      Hammer.run_virtual ~live ~server:(pinned_scfg ()) (pinned_fleet ()) g
    in
    Alcotest.(check int) "virtual run drains" n r.Hammer.completed;
    Live.to_json live
  in
  let chaos_json =
    let live = Live.create () in
    let wire =
      Wire_plan.make ~drop:0.02 ~corrupt:0.02 ~truncate:0.01 ~duplicate:0.02
        ~reorder:0.02 ~delay_mean:0.005 ~seed:0xC4A0 ()
    in
    let r =
      Hammer.run_chaos ~live ~server:(pinned_scfg ()) ~wire
        ~reply_timeout_s:0.5 (pinned_fleet ()) g
    in
    Alcotest.(check int) "chaos run drains" n r.Hammer.base.Hammer.completed;
    Live.to_json live
  in
  let recover_json =
    with_tmp @@ fun path ->
    (* half the dag completed, then one lease stranded at the kill *)
    let j = open_exn path in
    let srv = Server.create ~journal:j (pinned_scfg ()) g in
    let now = ref 0.0 in
    while (Server.stats srv).Server.completions < n / 2 do
      now := !now +. 0.001;
      match Server.handle srv ~now:!now (Wire.Lease_req { worker = 0; k = 16 }) with
      | Wire.Lease { tasks; _ } ->
        Array.iter
          (fun v ->
            ignore
              (Server.handle srv ~now:!now (Wire.Complete { worker = 0; task = v })))
          tasks
      | _ -> Alcotest.fail "phase 1 starved before the kill point"
    done;
    (match Server.handle srv ~now:!now (Wire.Lease_req { worker = 1; k = 8 }) with
    | Wire.Lease _ -> ()
    | _ -> Alcotest.fail "no lease left to strand");
    Journal.close j;
    let live = Live.create () in
    let j = open_exn path in
    let srv =
      match Server.recover ~live ~journal:j (pinned_scfg ()) g with
      | Ok s -> s
      | Error e -> Alcotest.failf "recover: %s" e
    in
    let r = Hammer.drive ~live srv (pinned_fleet ()) in
    Journal.close j;
    Alcotest.(check int) "recovered run drains" n
      r.Hammer.server.Server.completions;
    Live.to_json live
  in
  Alcotest.(check (list string))
    "virtual, chaos, kill-and-recover"
    [
      "61956db2ec45278a46551bd39177f388";
      "f55e9b7cb378de11bdf1531a51f725ac";
      "670e57445241c4c55df17193f1debcac";
    ]
    [ digest virtual_json; digest chaos_json; digest recover_json ]

(* --------------------------------------------------------- quantiles *)

let samples_of xs =
  let s = Hammer.samples () in
  Array.iter (Hammer.sample s) xs;
  s

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let rank_qs = [ 0.0; 0.01; 0.5; 0.99; 1.0 ]

(* every ordered pair of [rank_qs], each on a fresh buffer since the
   selection reorders it, against the oracle: sort, then index the
   nearest rank *)
let quantiles_match xs =
  let n = Array.length xs in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let oracle q =
    if n = 0 then nan
    else
      sorted.(max 0
                (min (n - 1) (int_of_float (Float.of_int (n - 1) *. q +. 0.5))))
  in
  List.for_all
    (fun q1 ->
      List.for_all
        (fun q2 ->
          let v1, v2 = Hammer.quantiles (samples_of xs) q1 q2 in
          same_bits v1 (oracle q1) && same_bits v2 (oracle q2))
        rank_qs)
    rank_qs

(* [Float.compare] ties -0.0 with 0.0 and every nan with every other, so
   any order-based method may return either of a tied pair; the values
   are normalized so a tie is also a bit-identical pair *)
let gen_latencies =
  QCheck.Gen.(
    let value =
      frequency
        [
          (6, map float_of_int (int_range (-20) 20));
          (3, float);
          (1, oneofl [ nan; infinity; neg_infinity ]);
        ]
    in
    let normal x = if Float.is_nan x then nan else if x = 0.0 then 0.0 else x in
    array_size (int_range 0 2000) (map normal value))

let prop_quantiles_match_sort =
  QCheck.Test.make ~name:"selected quantiles equal the sorted nearest rank"
    ~count:200
    (QCheck.make
       ~print:(fun xs -> Printf.sprintf "<%d samples>" (Array.length xs))
       gen_latencies)
    quantiles_match

(* sorted, reversed and all-equal inputs split well under a
   median-of-three pivot; organ pipe defeats it (the sample is the
   range's minimum every round), so it runs the sort fallback *)
let test_quantiles_fixed_inputs () =
  let n = 10_001 in
  List.iter
    (fun (name, xs) ->
      Alcotest.(check bool) name true (quantiles_match xs))
    [
      ("empty", [||]);
      ("one", [| 3.5 |]);
      ("two", [| 2.0; 1.0 |]);
      ("sorted", Array.init n float_of_int);
      ("reversed", Array.init n (fun i -> float_of_int (n - i)));
      ("all equal", Array.make n 0.25);
      ( "organ pipe",
        Array.init n (fun i -> float_of_int (min i (n - 1 - i))) );
      ( "nans and values",
        Array.init n (fun i ->
            if i mod 3 = 0 then nan else float_of_int (i mod 7)) );
    ]

(* ------------------------------------------------------- TCP transport *)

(* drain mesh-10 (66 tasks, 11 deep) over loopback with [cfg]'s fleet *)
let tcp_loopback_drain scfg cfg =
  let g = Mesh.out_mesh 10 in
  let n = Dag.n_nodes g in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Tcp.serve
          ~on_listen:(fun p -> Atomic.set port p)
          ~once:true ~port:0 scfg g)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let p = Atomic.get port in
  if p = 0 then Alcotest.fail "server never listened";
  let hr = Tcp.hammer ~connections:4 ~port:p cfg in
  let st = Domain.join server in
  Alcotest.(check bool) "client saw Done" true hr.Tcp.done_seen;
  Alcotest.(check int) "server applied every task once" n st.Server.completions;
  Alcotest.(check int) "no lingering leases" 0 st.Server.inflight;
  Alcotest.(check bool) "client sent completions" true (hr.Tcp.completes_sent > 0);
  Array.iteri
    (fun i b ->
      if not (b >= 0.0 && b <= hr.Tcp.wall_s) then
        Alcotest.failf "worker %d busy %gs outside [0, %gs]" i b hr.Tcp.wall_s)
    hr.Tcp.busy_s;
  hr

let test_tcp_loopback_roundtrip () =
  ignore
    (tcp_loopback_drain
       (Server.config ~n_shards:2 ~expected_s:0.5 ())
       (Hammer.config ~workers:50 ~k:4 ~mean_service_s:0.0005 ~think_s:0.0001
          ()));
  (* a churning fleet: mostly disconnect/rejoin, a few crashes *)
  let workers = 50 and mean_service_s = 0.01 in
  let churn =
    Plan.make ~crash_rate:0.2 ~disconnect_rate:3.0 ~mean_downtime:0.05
      ~seed:13 ()
  in
  (* the seeded plan makes the churn certain and harmless: the fleet's
     first churn event is a disconnect well inside the shortest possible
     run (11 tasks in a chain, each served for at least the Pareto floor
     of a third of the mean), and most of the fleet outlives any
     plausible run, so the drain completes *)
  let first =
    List.init workers (fun i ->
        Plan.Churn.next (Plan.Churn.create churn ~client:i))
    |> List.filter_map Fun.id
    |> List.sort (fun a b -> Float.compare a.Plan.Churn.time b.Plan.Churn.time)
    |> List.hd
  in
  (match first.Plan.Churn.kind with
  | Plan.Churn.Disconnect _ -> ()
  | _ -> Alcotest.fail "the first churn event is not a disconnect");
  Alcotest.(check bool) "first disconnect early" true
    (first.Plan.Churn.time < 11.0 *. (mean_service_s /. 3.0) /. 4.0);
  Alcotest.(check bool) "most workers outlive 5 s" true
    (List.length
       (List.filter
          (fun i -> Plan.crash_time churn ~client:i > 5.0)
          (List.init workers Fun.id))
    >= workers / 4);
  let hr =
    tcp_loopback_drain
      (Server.config ~n_shards:2 ~expected_s:0.05 ())
      (Hammer.config ~workers ~k:4 ~mean_service_s ~think_s:0.0001 ~churn ())
  in
  Alcotest.(check bool) "churn disconnected workers" true
    (hr.Tcp.disconnects > 0)

(* literals and names resolve alike, and the socket domain follows the
   address: the hammer once accepted only 127.0.0.1/localhost literals
   and always opened an IPv4 socket *)
let test_tcp_resolve () =
  let domain host =
    match Tcp.resolve ~host ~port:7 with
    | Ok a -> Unix.domain_of_sockaddr a
    | Error e -> Alcotest.failf "%s: %s" host e
  in
  Alcotest.(check bool) "IPv4 literal" true (domain "127.0.0.1" = Unix.PF_INET);
  Alcotest.(check bool) "IPv6 literal" true (domain "::1" = Unix.PF_INET6);
  Alcotest.(check bool) "localhost, IPv4 first" true
    (domain "localhost" = Unix.PF_INET);
  (match Tcp.resolve ~host:"127.0.0.1" ~port:7 with
  | Ok (Unix.ADDR_INET (ip, 7)) ->
    Alcotest.(check string) "address" "127.0.0.1" (Unix.string_of_inet_addr ip)
  | _ -> Alcotest.fail "expected 127.0.0.1:7");
  (match Tcp.resolve ~host:"no-such-host.invalid" ~port:7 with
  | Error e ->
    Alcotest.(check bool) "one-line error" false (String.contains e '\n')
  | Ok _ -> Alcotest.fail "an unresolvable name resolved");
  let cfg = Hammer.config ~workers:1 () in
  match Tcp.hammer ~host:"no-such-host.invalid" ~port:1 cfg with
  | exception Invalid_argument _ -> ()
  | exception e ->
    Alcotest.failf "unresolvable host raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "hammered an unresolvable host"

(* kill the wire, not the server: chaos-mangled client frames force the
   server to drop connections, the hammer heals by redialing *)
let test_tcp_chaos_reconnects_and_finishes () =
  let g = Mesh.out_mesh 10 in
  let n = Dag.n_nodes g in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Tcp.serve
          ~on_listen:(fun p -> Atomic.set port p)
          ~once:true ~port:0
          (Server.config ~n_shards:2 ~expected_s:0.2
             ~recovery:(Recovery.make ~timeout_factor:4.0 ())
             ())
          g)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let p = Atomic.get port in
  if p = 0 then Alcotest.fail "server never listened";
  let chaos = Wire_plan.make ~drop:0.02 ~corrupt:0.02 ~truncate:0.01 () in
  let cfg =
    Hammer.config ~workers:50 ~k:4 ~mean_service_s:0.0005 ~think_s:0.0001 ()
  in
  let hr = Tcp.hammer ~connections:4 ~chaos ~reply_timeout_s:0.3 ~port:p cfg in
  let st = Domain.join server in
  Alcotest.(check bool) "client saw Done through the chaos" true
    hr.Tcp.done_seen;
  Alcotest.(check int) "server applied every task once" n st.Server.completions;
  Alcotest.(check int) "no lingering leases" 0 st.Server.inflight;
  Alcotest.(check bool) "the wire forced at least one reconnect" true
    (hr.Tcp.reconnects > 0)

(* pipelining over a raw socket: [Tcp.serve] answers every frame of a read
   and writes the replies out together, so many frames in one write, and
   frames cut at any byte, must come back complete, in FIFO order, and
   equal to what a synchronous drive of a twin server answers *)

(* the next [count] frames of a fixed Hello / Lease_req / Complete /
   Heartbeat rotation, each paired with the twin's reply; a Complete names
   the oldest task the twin leased and nobody completed yet (task 0, a
   duplicate, when none is held) *)
let plan_frames twin held count =
  let script = ref [] in
  for i = 0 to count - 1 do
    let msg =
      match i mod 4 with
      | 0 -> Wire.Hello { worker = 0 }
      | 1 -> Wire.Lease_req { worker = 0; k = 2 }
      | 2 ->
        Wire.Complete
          { worker = 0; task = (if Queue.is_empty held then 0 else Queue.pop held) }
      | _ -> Wire.Heartbeat { worker = 0 }
    in
    let reply = Server.handle twin ~now:0.0 msg in
    (match reply with
    | Wire.Lease { tasks; _ } -> Array.iter (fun v -> Queue.add v held) tasks
    | _ -> ());
    script := (msg, reply) :: !script
  done;
  List.rev !script

let frames_of script =
  let b = Buffer.create 256 in
  List.iter (fun (m, _) -> Wire.encode b m) script;
  Buffer.contents b

let rec write_all fd s off len =
  if len > 0 then begin
    let k = Unix.write_substring fd s off len in
    write_all fd s (off + k) (len - k)
  end

(* read [n] reply frames, failing after 5 s of silence *)
let read_replies fd reader n =
  let buf = Bytes.create 4096 in
  let rec go acc k =
    if k = n then List.rev acc
    else
      match Wire.Reader.next reader with
      | Ok (Some m) -> go (m :: acc) (k + 1)
      | Error e -> Alcotest.failf "reply stream: %s" e
      | Ok None ->
        (match Unix.select [ fd ] [] [] 5.0 with
        | [], _, _ -> Alcotest.failf "timed out after %d of %d replies" k n
        | _ ->
          let r = Unix.read fd buf 0 (Bytes.length buf) in
          if r = 0 then Alcotest.fail "server closed the connection";
          Wire.Reader.feed reader buf 0 r);
        go acc k
  in
  go [] 0

let check_replies what script got =
  List.iteri
    (fun i ((_, want), got) ->
      if want <> got then
        Alcotest.failf "%s: reply %d is %S, the twin answered %S" what i
          (Wire.to_string got) (Wire.to_string want))
    (List.combine script got)

let test_tcp_pipelined_frames () =
  let g = Mesh.out_mesh 10 in
  let n = Dag.n_nodes g in
  (* leases outlive the test: no expiry may fire in the served copy *)
  let scfg = Server.config ~n_shards:2 ~expected_s:100.0 () in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Tcp.serve
          ~on_listen:(fun p -> Atomic.set port p)
          ~once:true ~port:0 scfg g)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if Atomic.get port = 0 then Alcotest.fail "server never listened";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Atomic.get port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let reader = Wire.Reader.create () in
  let twin = Server.create scfg g in
  let held = Queue.create () in
  (* 64 mixed frames in one write *)
  let script = plan_frames twin held 64 in
  let s = frames_of script in
  write_all fd s 0 (String.length s);
  check_replies "one write" script (read_replies fd reader 64);
  (* a 4-frame sequence cut at every byte boundary, in two writes with a
     pause between, so the server reads a partial frame first *)
  let cut = ref 1 and len = ref 2 in
  while !cut < !len do
    let script = plan_frames twin held 4 in
    let s = frames_of script in
    len := String.length s;
    write_all fd s 0 !cut;
    Unix.sleepf 0.001;
    write_all fd s !cut (!len - !cut);
    check_replies
      (Printf.sprintf "cut at byte %d" !cut)
      script
      (read_replies fd reader 4);
    incr cut
  done;
  (* finish the drain one frame at a time, so [once] lets the server go *)
  let rec finish budget =
    if budget = 0 then Alcotest.fail "drain never finished";
    let msg =
      if Queue.is_empty held then Wire.Lease_req { worker = 0; k = 2 }
      else Wire.Complete { worker = 0; task = Queue.pop held }
    in
    let want = Server.handle twin ~now:0.0 msg in
    (match want with
    | Wire.Lease { tasks; _ } -> Array.iter (fun v -> Queue.add v held) tasks
    | _ -> ());
    let s = Wire.to_string msg in
    write_all fd s 0 (String.length s);
    check_replies "drain" [ (msg, want) ] (read_replies fd reader 1);
    match want with Wire.Done _ -> () | _ -> finish (budget - 1)
  in
  finish 1000;
  Unix.close fd;
  let st = Domain.join server in
  Alcotest.(check int) "server applied every task once" n st.Server.completions;
  Alcotest.(check int) "no protocol errors" 0 st.Server.protocol_errors

(* the full loop over real sockets: journal the first serve, kill it
   mid-drain (abandon the domain's server state), restart with recover,
   and let a fresh hammer finish the job *)
let test_tcp_journal_recover_roundtrip () =
  let g = Mesh.out_mesh 10 in
  let n = Dag.n_nodes g in
  with_tmp @@ fun path ->
  (* phase 1: partial drain server-side, no TCP needed to strand state *)
  let j = open_exn path in
  let srv = Server.create ~journal:j (Server.config ~n_shards:2 ()) g in
  let completed = ref 0 in
  let now = ref 0.0 in
  while !completed < n / 2 do
    now := !now +. 0.001;
    match Server.handle srv ~now:!now (Wire.Lease_req { worker = 0; k = 4 }) with
    | Wire.Lease { tasks; _ } ->
      Array.iter
        (fun v ->
          if !completed < n / 2 then begin
            ignore
              (Server.handle srv ~now:!now (Wire.Complete { worker = 0; task = v }));
            incr completed
          end)
        tasks
    | Wire.Retry_after _ ->
      now := !now +. 100.0;
      ignore (Server.expire srv ~now:!now)
    | _ -> Alcotest.fail "phase 1 starved"
  done;
  Journal.close j;
  (* phase 2: serve --journal --recover over TCP, hammer it to done *)
  let j = open_exn path in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Tcp.serve ~journal:j ~recover:true
          ~on_listen:(fun p -> Atomic.set port p)
          ~once:true ~port:0
          (Server.config ~n_shards:2 ~expected_s:0.5 ())
          g)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if Atomic.get port = 0 then Alcotest.fail "recovered server never listened";
  let cfg =
    Hammer.config ~workers:20 ~k:4 ~mean_service_s:0.0005 ~think_s:0.0001 ()
  in
  let hr = Tcp.hammer ~connections:2 ~port:(Atomic.get port) cfg in
  let st = Domain.join server in
  Journal.close j;
  Alcotest.(check bool) "client saw Done" true hr.Tcp.done_seen;
  Alcotest.(check int) "recovered completions counted" (n / 2)
    st.Server.recovered_tasks;
  Alcotest.(check int) "total exactly once" n st.Server.completions;
  Alcotest.(check int) "nothing left leased" 0 st.Server.inflight

(* over sockets each read's replies leave after one journal write, and
   the journal's own counts reach the registry as served.journal.* *)
let test_tcp_journal_counters () =
  let g = Mesh.out_mesh 10 in
  let n = Dag.n_nodes g in
  with_tmp @@ fun path ->
  let j = open_exn ~checkpoint_every:16 path in
  let live = Live.create () in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Tcp.serve ~journal:j ~live
          ~on_listen:(fun p -> Atomic.set port p)
          ~once:true ~port:0
          (Server.config ~n_shards:2 ~expected_s:0.5 ())
          g)
  in
  while Atomic.get port = 0 do
    Unix.sleepf 0.001
  done;
  let cfg =
    Hammer.config ~workers:20 ~k:4 ~mean_service_s:0.0005 ~think_s:0.0001 ()
  in
  let hr = Tcp.hammer ~connections:2 ~port:(Atomic.get port) cfg in
  let st = Domain.join server in
  Alcotest.(check bool) "client saw Done" true hr.Tcp.done_seen;
  Alcotest.(check int) "exactly once" n st.Server.completions;
  let js = Journal.stats j in
  let counter name =
    Live.counter_value (Live.counter live ("served.journal." ^ name))
  in
  Alcotest.(check int) "appends" js.Journal.appends (counter "appends");
  Alcotest.(check int) "writes" js.Journal.writes (counter "writes");
  Alcotest.(check int) "bytes" js.Journal.bytes (counter "bytes");
  Alcotest.(check int) "checkpoints" js.Journal.checkpoints
    (counter "checkpoints");
  Alcotest.(check int) "checkpoints deferred" js.Journal.checkpoints_deferred
    (counter "checkpoints_deferred");
  Alcotest.(check bool) "every completion journaled" true
    (js.Journal.appends >= n);
  Alcotest.(check bool) "at most one write per append" true
    (js.Journal.writes >= 1 && js.Journal.writes <= js.Journal.appends);
  Alcotest.(check bool) "rotated" true (js.Journal.checkpoints >= 1);
  Journal.close j;
  Alcotest.(check bool) "no PATH.prev after close" false
    (Sys.file_exists (path ^ ".prev"));
  let j = open_exn path in
  let srv =
    match Server.recover ~journal:j (Server.config ~n_shards:2 ()) g with
    | Ok s -> s
    | Error e -> Alcotest.failf "recover: %s" e
  in
  Alcotest.(check int) "the journal replays the whole drain" n
    (Server.stats srv).Server.recovered_tasks;
  Journal.close j

let () =
  Alcotest.run "ic_served"
    [
      ( "wire",
        Alcotest.test_case "oversized frame rejected" `Quick
          test_oversized_frame_rejected
        :: Alcotest.test_case "unknown tag rejected" `Quick test_bad_tag_rejected
        :: Alcotest.test_case "trailing bytes rejected" `Quick
             test_trailing_bytes_rejected
        :: Alcotest.test_case "reader reassembles byte-at-a-time" `Quick
             test_reader_byte_at_a_time
        :: Alcotest.test_case "rejected encode leaves the buffer unchanged"
             `Quick test_encode_rejects_atomically
        :: qcheck
             [ prop_roundtrip; prop_truncated_needs_more; prop_junk_never_raises ]
      );
      ( "shards",
        [
          Alcotest.test_case "partition covers the dag" `Quick
            test_shard_view_partition;
          Alcotest.test_case "each node ready exactly once" `Quick
            test_shard_view_exactly_once_ready;
          Alcotest.test_case "pool pops batches LIFO" `Quick test_pool_batch_pop;
        ]
        @ qcheck [ prop_shard_view_matches_frontier ] );
      ( "server",
        [
          Alcotest.test_case "lease, complete, done" `Quick
            test_lease_complete_done;
          Alcotest.test_case "admission control" `Quick test_backpressure;
          Alcotest.test_case "refusals share one reply" `Quick
            test_refusals_share_one_reply;
          Alcotest.test_case "empty pools refuse without a fill" `Quick
            test_empty_pools_refusal;
          Alcotest.test_case "expiry re-issues; duplicate counted once" `Quick
            test_expiry_reissue_and_duplicate;
          Alcotest.test_case "heartbeat renews leases" `Quick
            test_heartbeat_renews;
          Alcotest.test_case "leases and heartbeats stay bounded" `Quick
            test_server_stays_bounded;
          Alcotest.test_case "a grant allocates only its reply" `Quick
            test_lease_path_allocation;
          Alcotest.test_case "protocol errors and drain" `Quick
            test_protocol_errors_and_drain;
          Alcotest.test_case "sharded run spreads leases" `Quick
            test_sharded_run_spreads_leases;
          Alcotest.test_case "Live reads the server's state after each step"
            `Quick test_live_reads_server_state;
        ]
        @ qcheck [ prop_lazy_renewal_matches_eager ] );
      ( "hammer",
        [
          Alcotest.test_case "clean run, per-shard trace tracks" `Quick
            test_hammer_small_clean;
          Alcotest.test_case "flight ring holds the sink's tail" `Quick
            test_flight_ring_is_sink_tail;
          Alcotest.test_case
            "mesh-256, 10^4 churning workers: exactly once, deterministic"
            `Quick test_mesh256_churn_exactly_once;
          Alcotest.test_case "seeded churning run matches pinned values" `Quick
            test_pinned_virtual_run;
          Alcotest.test_case "config bounds workers to the event field" `Quick
            test_config_bounds_workers;
          Alcotest.test_case "live mirror preserves byte-determinism" `Quick
            test_live_mirror_preserves_determinism;
          Alcotest.test_case "quantiles: sorted, reversed, equal, organ pipe"
            `Quick test_quantiles_fixed_inputs;
        ]
        @ qcheck [ prop_quantiles_match_sort ] );
      ( "journal",
        Alcotest.test_case "records round-trip through a reopen" `Quick
          test_journal_roundtrip
        :: Alcotest.test_case "torn tail is truncated, prefix survives" `Quick
             test_journal_torn_tail_truncated
        :: Alcotest.test_case "corrupt CRC truncates from that record" `Quick
             test_journal_corrupt_crc_truncates_from_there
        :: Alcotest.test_case "recover re-issues the unjournaled lease" `Quick
             test_recover_small_reissues_and_finishes
        :: Alcotest.test_case "a grouped drain writes the same bytes" `Quick
             test_grouped_drain_same_bytes
        :: Alcotest.test_case "group flushes when its body raises" `Quick
             test_group_flushes_when_body_raises
        :: Alcotest.test_case "stats: one write per group" `Quick
             test_writes_count_groups
        :: Alcotest.test_case "grouped appends allocate nothing" `Quick
             test_grouped_append_allocates_nothing
        :: Alcotest.test_case "a writer outlives its journal" `Quick
             test_writer_outlives_its_journal
        :: qcheck [ prop_recover_any_cut; prop_recover_any_rotation_state ] );
      ( "recovery",
        [
          Alcotest.test_case
            "mesh-256 killed mid-drain: recover + churn fleet, exactly once,\
             \ deterministic"
            `Quick test_mesh256_kill_recover_exactly_once;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "hostile wire: exactly once, deterministic"
            `Quick test_chaos_hostile_wire_exactly_once;
          Alcotest.test_case "plan none is transparent" `Quick
            test_chaos_none_is_transparent;
          Alcotest.test_case "seeded chaos run matches pinned values" `Quick
            test_pinned_chaos_run;
          Alcotest.test_case "seeded metrics artifacts match pinned digests"
            `Quick test_pinned_live_json;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "loopback serve + hammer" `Quick
            test_tcp_loopback_roundtrip;
          Alcotest.test_case "host names and IPv6 literals resolve" `Quick
            test_tcp_resolve;
          Alcotest.test_case "chaos wire heals by reconnect" `Quick
            test_tcp_chaos_reconnects_and_finishes;
          Alcotest.test_case "journal counters over real sockets" `Quick
            test_tcp_journal_counters;
          Alcotest.test_case "journal + recover over real sockets" `Quick
            test_tcp_journal_recover_roundtrip;
          Alcotest.test_case "pipelined frames: FIFO replies = twin drive"
            `Quick test_tcp_pipelined_frames;
        ] );
    ]
