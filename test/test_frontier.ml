module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Gen = Ic_dag.Gen
module Frontier = Ic_dag.Frontier
module Repertoire = Ic_blocks.Repertoire

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* Reference implementation: the ELIGIBLE set recomputed from scratch from
   an executed-set bool array, straight from the definition. *)
let naive_eligible g executed =
  let acc = ref [] in
  for v = Dag.n_nodes g - 1 downto 0 do
    if
      (not executed.(v))
      && Array.for_all (fun p -> executed.(p)) (Dag.pred g v)
    then acc := v :: !acc
  done;
  !acc

(* Replay [order] on one incremental frontier, checking after every prefix
   that count/members agree with the naive recomputation, with a fresh
   [of_set] frontier, and with the bulk [profile]. *)
let check_replay name g order =
  let n = Dag.n_nodes g in
  let executed = Array.make n false in
  let fr = Frontier.create g in
  let prof = Frontier.profile g ~order in
  let step i =
    let reference = naive_eligible g executed in
    let label fmt = Printf.sprintf "%s: %s after %d steps" name fmt i in
    check_ints (label "members") reference (Frontier.to_list fr);
    check_int (label "count") (List.length reference) (Frontier.count fr);
    check_int (label "profile") prof.(i) (Frontier.count fr);
    check_int (label "executed_count") i (Frontier.executed_count fr);
    let fresh = Frontier.of_set g ~executed in
    check_ints (label "of_set members") reference (Frontier.to_list fresh);
    List.iter
      (fun v -> check (label "is_eligible") true (Frontier.is_eligible fr v))
      reference
  in
  step 0;
  Array.iteri
    (fun i v ->
      Frontier.execute fr v;
      executed.(v) <- true;
      step (i + 1))
    order;
  check_int (name ^ ": empty at end") 0 (Frontier.count fr)

let test_repertoire_equivalence () =
  List.iter
    (fun (r : Repertoire.t) ->
      check_replay r.name r.dag (Schedule.order r.schedule))
    Repertoire.all

let test_random_equivalence () =
  let st = Random.State.make [| 42 |] in
  for i = 1 to 15 do
    let g = Gen.random_dag st ~n:(10 + (i mod 5 * 7)) ~arc_probability:0.2 in
    let order = Schedule.order (Gen.random_schedule st g) in
    check_replay (Printf.sprintf "random dag %d" i) g order
  done;
  for i = 1 to 10 do
    let g = Gen.random_layered_dag st ~layers:4 ~width:5 ~arc_probability:0.4 in
    let order = Schedule.order (Gen.random_nonsinks_first_schedule st g) in
    check_replay (Printf.sprintf "layered dag %d" i) g order
  done

(* [of_set] must also accept non-ideal executed sets: a node with
   unexecuted parents is simply not eligible, executed or not. *)
let test_of_set_non_ideal () =
  let st = Random.State.make [| 7 |] in
  for i = 1 to 25 do
    let g = Gen.random_dag st ~n:20 ~arc_probability:0.25 in
    let executed =
      Array.init (Dag.n_nodes g) (fun _ -> Random.State.bool st)
    in
    let fr = Frontier.of_set g ~executed in
    check_ints
      (Printf.sprintf "non-ideal set %d" i)
      (naive_eligible g executed) (Frontier.to_list fr)
  done;
  check "length mismatch rejected" true
    (try
       ignore (Frontier.of_set (Dag.empty 3) ~executed:[| true |]);
       false
     with Invalid_argument _ -> true)

let frontier_state fr =
  let g = Frontier.dag fr in
  ( Frontier.count fr,
    Frontier.executed_count fr,
    Frontier.to_list fr,
    List.init (Dag.n_nodes g) (Frontier.is_executed fr) )

let test_snapshot_restore_roundtrip () =
  let st = Random.State.make [| 1234 |] in
  for _ = 1 to 25 do
    let g = Gen.random_dag st ~n:24 ~arc_probability:0.2 in
    let n = Dag.n_nodes g in
    let order = Schedule.order (Gen.random_schedule st g) in
    let k = Random.State.int st (n + 1) in
    let fr = Frontier.create g in
    for i = 0 to k - 1 do
      Frontier.execute fr order.(i)
    done;
    let before = frontier_state fr in
    let snap = Frontier.snapshot fr in
    (* run an arbitrary greedy continuation, not necessarily [order]'s *)
    let rec run_on () =
      match Frontier.choose fr with
      | Some v ->
        Frontier.execute fr v;
        if Random.State.bool st then run_on ()
      | None -> ()
    in
    run_on ();
    Frontier.restore fr snap;
    check "roundtrip restores state" true (frontier_state fr = before);
    (* the restored frontier must still execute correctly *)
    for i = k to n - 1 do
      Frontier.execute fr order.(i)
    done;
    check_int "completes after restore" n (Frontier.executed_count fr)
  done

let test_nested_snapshots () =
  let g = Ic_families.Mesh.out_mesh 5 in
  let order = Schedule.order (Ic_families.Mesh.out_schedule 5) in
  let fr = Frontier.create g in
  let snap0 = Frontier.snapshot fr in
  for i = 0 to 4 do
    Frontier.execute fr order.(i)
  done;
  let state1 = frontier_state fr in
  let snap1 = Frontier.snapshot fr in
  for i = 5 to 9 do
    Frontier.execute fr order.(i)
  done;
  let state2 = frontier_state fr in
  let snap2 = Frontier.snapshot fr in
  for i = 10 to Array.length order - 1 do
    Frontier.execute fr order.(i)
  done;
  Frontier.restore fr snap2;
  check "inner restore" true (frontier_state fr = state2);
  Frontier.restore fr snap1;
  check "outer restore" true (frontier_state fr = state1);
  check "stale snapshot raises" true
    (try
       Frontier.restore fr snap2;
       false
     with Invalid_argument _ -> true);
  Frontier.restore fr snap0;
  check_int "back to empty execution" 0 (Frontier.executed_count fr)

let test_execute_errors () =
  let g = Dag.make_exn ~n:3 ~arcs:[ (0, 1); (1, 2) ] () in
  let fr = Frontier.create g in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "out of range" true (raises (fun () -> Frontier.execute fr 3));
  check "not eligible" true (raises (fun () -> Frontier.execute fr 2));
  Frontier.execute fr 0;
  check "already executed" true (raises (fun () -> Frontier.execute fr 0))

let test_promotions_ascending () =
  let st = Random.State.make [| 99 |] in
  for _ = 1 to 10 do
    let g = Gen.random_dag st ~n:30 ~arc_probability:0.3 in
    let order = Schedule.order (Gen.random_schedule st g) in
    let fr = Frontier.create g in
    Array.iter
      (fun v ->
        let promoted = ref [] in
        Frontier.execute fr ~on_promote:(fun w -> promoted := w :: !promoted) v;
        let ws = List.rev !promoted in
        check "promotions ascending" true (List.sort compare ws = ws))
      order
  done

(* [profile]'s remaining-parents scratch is tiered by maximum in-degree
   (<= 255 packed8, <= 65535 packed16, beyond unpacked). A k-star — k
   leaves all feeding one center — pins the maximum in-degree exactly, so
   these tests cross each boundary and check both the tier picked and
   that every tier computes the same (known) profile. *)
let star k =
  let b = Dag.Builder.create ~n:(k + 1) ~hint:k () in
  for i = 0 to k - 1 do
    Dag.Builder.add_arc b i k
  done;
  Dag.Builder.build_exn b

let profile_star k tier =
  let g = star k in
  check (Printf.sprintf "star %d scratch tier" k) true
    (Frontier.scratch_tier g = tier);
  let order = Array.init (k + 1) Fun.id in
  let prof = Frontier.profile g ~order in
  check_int "star profile length" (k + 2) (Array.length prof);
  for i = 0 to k - 1 do
    check_int "star eligibility while draining leaves" (k - i) prof.(i)
  done;
  check_int "center eligible after the last leaf" 1 prof.(k);
  check_int "drained" 0 prof.(k + 1)

let test_scratch_tier_boundaries () =
  profile_star 255 Frontier.Packed8;
  profile_star 256 Frontier.Packed16;
  profile_star 65535 Frontier.Packed16;
  profile_star 65536 Frontier.Unpacked

(* Pool-order pin. [choose] returns the pool's last entry, so a
   [choose]-driven replay exposes the exact pool order that swap-removes,
   promotions and restores leave behind; every notify-order consumer
   depends on it. The digest covers each [choose] result, [count] and
   [members] along the replay, and [members] after a snapshot, up to 10
   [choose]-driven executes and a restore taken at every step. *)
let pool_order_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ' '
  in
  let add_members fr =
    Array.iter add_int (Frontier.members fr);
    Buffer.add_char buf '|'
  in
  let replay g =
    let fr = Frontier.create g in
    let rec step () =
      add_int (Frontier.count fr);
      add_members fr;
      match Frontier.choose fr with
      | None -> Buffer.add_char buf '.'
      | Some v ->
        add_int v;
        let snap = Frontier.snapshot fr in
        let rec ahead k =
          if k > 0 then
            match Frontier.choose fr with
            | Some w ->
              Frontier.execute fr w;
              ahead (k - 1)
            | None -> ()
        in
        ahead 10;
        Frontier.restore fr snap;
        add_members fr;
        (match Frontier.choose fr with Some w -> add_int w | None -> ());
        Frontier.execute fr v;
        step ()
    in
    step ()
  in
  let st = Random.State.make [| 2718 |] in
  List.iter replay
    ([
       Ic_families.Mesh.out_mesh 64;
       Ic_families.Butterfly_net.dag 6;
       Ic_families.Prefix_dag.dag 256;
     ]
    @ List.init 3 (fun i ->
          Gen.random_dag st ~n:(60 + (40 * i)) ~arc_probability:0.08));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_pool_order_pin () =
  Alcotest.(check string)
    "pool order digest" "5d472b594ce881c36a13c5fbb2b0c81c" (pool_order_digest ())

(* A random dag, sometimes with a hub past in-degree 255: the hub's
   parents are the first [k] nodes, and the hub feeds a short tail. *)
let model_dag rng =
  let n = 1 + Random.State.int rng 40 in
  let g = Gen.random_dag rng ~n ~arc_probability:(Random.State.float rng 0.4) in
  if Random.State.int rng 4 > 0 then g
  else begin
    let k = 250 + Random.State.int rng 20 in
    let hub = n + k in
    let b = Dag.Builder.create ~n:(hub + 3) () in
    Dag.iter_arcs g (fun u v -> Dag.Builder.add_arc b u v);
    for i = 0 to k - 1 do
      Dag.Builder.add_arc b i hub
    done;
    Dag.Builder.add_arc b hub (hub + 1);
    Dag.Builder.add_arc b hub (hub + 2);
    Dag.Builder.add_arc b (hub + 1) (hub + 2);
    Dag.Builder.build_exn b
  end

(* Random execute / snapshot / restore / [of_set] sequences against a
   model that keeps only the executed set and recomputes everything else
   from the definition after every operation. *)
let prop_model =
  QCheck2.Test.make ~name:"frontier = from-scratch model" ~count:300
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 120))
    (fun (seed, n_ops) ->
      let rng = Random.State.make [| seed |] in
      let g = model_dag rng in
      let n = Dag.n_nodes g in
      let executed = Array.make n false in
      let fr = ref (Frontier.create g) in
      (* snapshots still valid, newest first, with the executed set each
         one restores *)
      let snaps = ref [] in
      let eligible v =
        (not executed.(v)) && Array.for_all (fun p -> executed.(p)) (Dag.pred g v)
      in
      let agrees () =
        let reference = naive_eligible g executed in
        let k = List.length reference in
        let n_exec = Array.fold_left (fun a b -> if b then a + 1 else a) 0 executed in
        Frontier.count !fr = k
        && Frontier.to_list !fr = reference
        && Frontier.executed_count !fr = n_exec
        && (match Frontier.choose !fr with
           | None -> k = 0
           | Some v -> List.mem v reference)
        && List.for_all
             (fun v ->
               Frontier.is_executed !fr v = (v >= 0 && v < n && executed.(v))
               && Frontier.is_eligible !fr v = (v >= 0 && v < n && eligible v))
             (List.init (n + 2) (fun i -> i - 1))
      in
      let execute v =
        let before = Frontier.count !fr in
        let expected = ref [] in
        let seen = ref [] in
        let on_promote w =
          seen := (w, Frontier.count !fr) :: !seen
        in
        Frontier.execute ~on_promote !fr v;
        executed.(v) <- true;
        Array.iter (fun w -> if eligible w then expected := w :: !expected) (Dag.succ g v);
        (* promotions arrive in ascending order, each seeing the count
           that already includes it *)
        let promoted = List.rev !expected in
        List.rev !seen = List.mapi (fun i w -> (w, before + i)) promoted
      in
      let op () =
        match Random.State.int rng 8 with
        | 0 | 1 | 2 | 3 -> (
          match Frontier.to_list !fr with
          | [] -> true
          | l -> execute (List.nth l (Random.State.int rng (List.length l))))
        | 4 ->
          (* a node that may not be eligible: the error must match *)
          let v = Random.State.int rng (n + 2) - 1 in
          let expected =
            if v < 0 || v >= n then Some "Frontier.execute: node out of range"
            else if executed.(v) then Some "Frontier.execute: node already executed"
            else if not (eligible v) then Some "Frontier.execute: node not eligible"
            else None
          in
          (match expected with
          | None -> execute v
          | Some msg -> (
            match Frontier.execute !fr v with
            | () -> false
            | exception Invalid_argument m -> m = msg))
        | 5 ->
          snaps := (Frontier.snapshot !fr, Array.copy executed) :: !snaps;
          true
        | 6 -> (
          match !snaps with
          | [] -> true
          | l ->
            let i = Random.State.int rng (List.length l) in
            let snap, saved = List.nth l i in
            Frontier.restore !fr snap;
            Array.blit saved 0 executed 0 n;
            (* restoring past a snapshot invalidates the newer ones *)
            snaps := List.filteri (fun j _ -> j >= i) l;
            true)
        | _ ->
          (* a fresh frontier over a random set, ideal or not *)
          Array.iteri (fun v _ -> executed.(v) <- Random.State.int rng 3 = 0) executed;
          fr := Frontier.of_set g ~executed;
          snaps := [];
          true
      in
      let rec go k = k = 0 || (op () && agrees () && go (k - 1)) in
      agrees () && go n_ops)

(* The per-node state lives off the OCaml heap: creating a frontier and
   replaying a whole schedule allocates a few headers, never a word per
   node (mesh-256 has 33,153 nodes). Counted as [Gc.minor_words] plus
   direct major words, like test_csr's build pin. *)
let heap_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_replay_heap () =
  let g = Ic_families.Mesh.out_mesh 256 in
  let order = Schedule.order (Ic_families.Mesh.out_schedule 256) in
  let small = Ic_families.Mesh.out_mesh 2 in
  let warm = Frontier.create small in
  Array.iter (Frontier.execute warm) (Schedule.order (Ic_families.Mesh.out_schedule 2));
  let before = heap_words () in
  let fr = Frontier.create g in
  Array.iter (Frontier.execute fr) order;
  let bytes = (heap_words () -. before) *. float_of_int (Sys.word_size / 8) in
  check_int "replayed to the end" (Dag.n_nodes g) (Frontier.executed_count fr);
  if bytes >= 16384.0 then
    Alcotest.failf "create + replay of out_mesh 256 allocated %.0f heap bytes"
      bytes

let () =
  Alcotest.run "frontier"
    [
      ( "equivalence",
        [
          Alcotest.test_case "repertoire replay" `Quick
            test_repertoire_equivalence;
          Alcotest.test_case "random dags" `Quick test_random_equivalence;
          Alcotest.test_case "of_set non-ideal" `Quick test_of_set_non_ideal;
          Alcotest.test_case "pool order pin" `Quick test_pool_order_pin;
          QCheck_alcotest.to_alcotest prop_model;
        ] );
      ( "undo",
        [
          Alcotest.test_case "snapshot/restore roundtrip" `Quick
            test_snapshot_restore_roundtrip;
          Alcotest.test_case "nested snapshots" `Quick test_nested_snapshots;
        ] );
      ( "api",
        [
          Alcotest.test_case "execute errors" `Quick test_execute_errors;
          Alcotest.test_case "promotions ascending" `Quick
            test_promotions_ascending;
          Alcotest.test_case "replay heap" `Quick test_replay_heap;
        ] );
      ( "scratch tiers",
        [
          Alcotest.test_case "in-degree boundaries" `Quick
            test_scratch_tier_boundaries;
        ] );
    ]
