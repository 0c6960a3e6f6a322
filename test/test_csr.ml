(* The CSR-native dag core against a naive adjacency-list oracle, the
   Builder API, the cone-restricted engine, and a guarded large-dag smoke
   test (set IC_BIG_TESTS=1 for the ~10^6-node version). *)

module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Profile = Ic_dag.Profile
module Frontier = Ic_dag.Frontier
module Engine = Ic_compute.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* random upper-triangular arc list, independent of Gen and of the dag
   representation under test *)
let random_arcs rng n p =
  let arcs = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then arcs := (u, v) :: !arcs
    done
  done;
  !arcs

type oracle = { osucc : int list array; opred : int list array }

let oracle_of_arcs n arcs =
  let osucc = Array.make n [] and opred = Array.make n [] in
  List.iter
    (fun (u, v) ->
      osucc.(u) <- v :: osucc.(u);
      opred.(v) <- u :: opred.(v))
    arcs;
  Array.iteri (fun v l -> osucc.(v) <- List.sort compare l) osucc;
  Array.iteri (fun v l -> opred.(v) <- List.sort compare l) opred;
  { osucc; opred }

let agrees_with_oracle g { osucc; opred } =
  let n = Dag.n_nodes g in
  for v = 0 to n - 1 do
    if Array.to_list (Dag.succ g v) <> osucc.(v) then
      Alcotest.failf "succ %d disagrees" v;
    if Array.to_list (Dag.pred g v) <> opred.(v) then
      Alcotest.failf "pred %d disagrees" v;
    check_int (Printf.sprintf "out_degree %d" v) (List.length osucc.(v))
      (Dag.out_degree g v);
    check_int (Printf.sprintf "in_degree %d" v) (List.length opred.(v))
      (Dag.in_degree g v);
    (* iterators and raw CSR agree with the allocating accessors *)
    let collected = ref [] in
    Dag.iter_succ g v (fun w -> collected := w :: !collected);
    if List.rev !collected <> osucc.(v) then Alcotest.failf "iter_succ %d" v;
    let folded = Dag.fold_pred g v [] (fun acc p -> p :: acc) in
    if List.rev folded <> opred.(v) then Alcotest.failf "fold_pred %d" v;
    for w = 0 to n - 1 do
      if Dag.has_arc g v w <> List.mem w osucc.(v) then
        Alcotest.failf "has_arc %d %d" v w
    done
  done;
  let n_sources =
    Array.fold_left (fun acc l -> if l = [] then acc + 1 else acc) 0 opred
  in
  check_int "n_sources" n_sources (Dag.n_sources g);
  Alcotest.(check (array int))
    "in_degrees" (Array.map List.length opred) (Dag.in_degrees g);
  let lex =
    List.sort compare
      (Array.to_list (Array.mapi (fun u l -> List.map (fun v -> (u, v)) l) osucc)
      |> List.concat)
  in
  Alcotest.(check (list (pair int int))) "fold_arcs lexicographic" lex
    (List.rev (Dag.fold_arcs g [] (fun acc u v -> (u, v) :: acc)));
  let arcs = ref [] in
  Dag.iter_arcs g (fun u v -> arcs := (u, v) :: !arcs);
  Alcotest.(check (list (pair int int))) "iter_arcs lexicographic" lex
    (List.rev !arcs)

let test_oracle_random () =
  let rng = Random.State.make [| 0xC52 |] in
  for _ = 1 to 40 do
    let n = 1 + Random.State.int rng 40 in
    let p = Random.State.float rng 0.5 in
    let arcs = random_arcs rng n p in
    let g = Dag.make_exn ~n ~arcs () in
    agrees_with_oracle g (oracle_of_arcs n arcs)
  done

let test_builder_matches_make () =
  let rng = Random.State.make [| 0xB11D |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rng 30 in
    let arcs = random_arcs rng n 0.3 in
    (* shuffled insertion order must not matter *)
    let shuffled =
      List.map (fun a -> (Random.State.bits rng, a)) arcs
      |> List.sort compare |> List.map snd
    in
    let b = Dag.Builder.create ~n () in
    List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) shuffled;
    let g = Dag.Builder.build_exn b in
    check_int "n_arcs" (List.length arcs) (Dag.n_arcs g);
    check "equal to make" true (Dag.equal g (Dag.make_exn ~n ~arcs ()))
  done

let expect_error name result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error _ -> ()

let build_with n arcs =
  let b = Dag.Builder.create ~n () in
  List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) arcs;
  Dag.Builder.build b

let test_builder_rejects () =
  expect_error "cycle" (build_with 3 [ (0, 1); (1, 2); (2, 0) ]);
  expect_error "self-loop" (build_with 2 [ (0, 0) ]);
  expect_error "duplicate" (build_with 2 [ (0, 1); (0, 1) ]);
  expect_error "range" (build_with 2 [ (0, 2) ]);
  expect_error "negative endpoint" (build_with 2 [ (-1, 0) ]);
  expect_error "negative n" (build_with (-1) []);
  expect_error "bad labels"
    (Dag.Builder.build (Dag.Builder.create ~labels:[| "a" |] ~n:2 ()))

let test_builder_buffered_fill () =
  (* a reversed stream from two or more sources takes the buffered fill;
     it must give exactly the dag the sorted stream fills directly *)
  let rng = Random.State.make [| 0x59111 |] in
  for _ = 1 to 10 do
    let n = 5 + Random.State.int rng 40 in
    let arcs =
      List.sort_uniq compare ((0, n - 1) :: (1, n - 1) :: random_arcs rng n 0.3)
    in
    let reference = Dag.make_exn ~n ~arcs () in
    let b = Dag.Builder.create ~n () in
    List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) (List.rev arcs);
    check "buffered = direct" true (Dag.equal (Dag.Builder.build_exn b) reference)
  done;
  (* validation errors surface identically through the buffered path *)
  let buffered_build n arcs = build_with n ((1, 2) :: (0, 1) :: arcs) in
  expect_error "buffered cycle" (buffered_build 3 [ (2, 0) ]);
  expect_error "buffered duplicate" (buffered_build 3 [ (0, 1) ]);
  expect_error "buffered range" (buffered_build 3 [ (1, 7) ])

let test_builder_add_arc_unboxed () =
  (* once [~hint] has sized the buffer, appending arcs allocates nothing:
     endpoints are clamped on [int] and stored as raw int32 *)
  let m = 100_000 in
  let b = Dag.Builder.create ~n:(m + 1) ~hint:m () in
  let before = Gc.minor_words () in
  for i = 0 to m - 1 do
    Dag.Builder.add_arc b i (i + 1)
  done;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then
    Alcotest.failf "%d add_arc calls allocated %.0f minor words" m words;
  check_int "all added" m (Dag.n_arcs (Dag.Builder.build_exn b))

let test_builder_spent () =
  (* a build spends the builder, whichever fill it took and whatever its
     result: a later add_arc or build raises, and the dag is unchanged *)
  let spent name b =
    let raises f =
      match f () with
      | exception Invalid_argument _ -> true
      | _ -> false
    in
    check (name ^ ": add_arc raises") true
      (raises (fun () -> Dag.Builder.add_arc b 0 1));
    check (name ^ ": build raises") true
      (raises (fun () -> ignore (Dag.Builder.build b)))
  in
  let direct = Dag.Builder.create ~n:3 () in
  Dag.Builder.add_arc direct 0 1;
  let g = Dag.Builder.build_exn direct in
  spent "direct" direct;
  let buffered = Dag.Builder.create ~n:3 () in
  Dag.Builder.add_arc buffered 1 2;
  Dag.Builder.add_arc buffered 0 1;
  let h = Dag.Builder.build_exn buffered in
  spent "buffered" buffered;
  let failed = Dag.Builder.create ~n:2 () in
  Dag.Builder.add_arc failed 0 0;
  expect_error "self-loop" (Dag.Builder.build failed);
  spent "failed" failed;
  check "direct dag kept" true
    (Dag.equal g (Dag.make_exn ~n:3 ~arcs:[ (0, 1) ] ()));
  check "buffered dag kept" true
    (Dag.equal h (Dag.make_exn ~n:3 ~arcs:[ (0, 1); (1, 2) ] ()))

(* Arc streams in the orders a builder may see. [Sorted] and
   [Late_inversion] keep the whole stream (or all but its tail) in source
   order and forward, so they exercise the direct fill; [Reversed] and
   [Shuffled] leave it within the first arcs or two. *)
type order = Sorted | Late_inversion | Reversed | Shuffled

type fault = No_fault | Duplicate | Self_loop | Out_of_range | Back_arc

let order_gen =
  QCheck2.Gen.oneofl [ Sorted; Late_inversion; Reversed; Shuffled ]

let fault_gen =
  QCheck2.Gen.oneofl
    [ No_fault; No_fault; Duplicate; Self_loop; Out_of_range; Back_arc ]

let arrange rng order arcs =
  let sorted = List.sort compare arcs in
  match order with
  | Sorted -> sorted
  | Reversed -> List.rev sorted
  | Shuffled ->
    List.map (fun a -> (Random.State.bits rng, a)) arcs
    |> List.sort compare |> List.map snd
  | Late_inversion ->
    (* swap one neighbouring pair in the last half of the stream: within a
       row the direct fill's row sort absorbs it, across rows it hands the
       arcs over to the buffered path *)
    let a = Array.of_list sorted in
    let m = Array.length a in
    if m >= 2 then begin
      let late = Random.State.int rng (max 1 (m - 1 - (m / 2))) in
      let i = min (m - 2) ((m / 2) + late) in
      let x = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- x
    end;
    Array.to_list a

(* insert [arc] at a random position of [stream] *)
let insert_at rng arc stream =
  let k = Random.State.int rng (List.length stream + 1) in
  List.filteri (fun i _ -> i < k) stream
  @ (arc :: List.filteri (fun i _ -> i >= k) stream)

let inject rng n fault stream =
  let pick () = List.nth stream (Random.State.int rng (List.length stream)) in
  match fault with
  | No_fault -> stream
  | Duplicate when stream <> [] -> insert_at rng (pick ()) stream
  | Back_arc when stream <> [] ->
    let u, v = pick () in
    insert_at rng (v, u) stream
  | Self_loop ->
    let v = Random.State.int rng n in
    insert_at rng (v, v) stream
  | Out_of_range ->
    let u = Random.State.int rng n in
    let bad =
      if Random.State.bool rng then (u, n + Random.State.int rng 3) else (-1, u)
    in
    insert_at rng bad stream
  | Duplicate | Back_arc -> stream

let add_all b stream =
  List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) stream

(* both CSR directions and the source count agree *)
let same_dag g h =
  Dag.equal g h
  && Ic_dag.Slab.equal (Dag.pred_offsets g) (Dag.pred_offsets h)
  && Ic_dag.Slab.equal (Dag.pred_sources g) (Dag.pred_sources h)
  && Dag.n_sources g = Dag.n_sources h

(* [got] matches [Dag.make] on the reversed stream, which takes the
   buffered path; an [Ok] dag also holds exactly the stream's arcs, in
   ascending rows on both sides, and no cycle, so a fault shared by both
   paths shows *)
let matches_reference n stream got =
  match (got, Dag.make ~n ~arcs:(List.rev stream) ()) with
  | Error e, Error e' when e = e' -> true
  | Ok g, Ok h when same_dag g h ->
    let arcs = List.sort_uniq compare stream in
    let by_target (u, v) (u', v') = compare (v, u) (v', u') in
    let parents =
      List.concat_map
        (fun v -> List.map (fun u -> (u, v)) (Array.to_list (Dag.pred g v)))
        (List.init n Fun.id)
    in
    List.rev (Dag.fold_arcs g [] (fun acc u v -> (u, v) :: acc)) = arcs
    && parents = List.sort by_target arcs
    (* [topological_order] asserts that Kahn's algorithm drains every node *)
    && Array.length (Dag.topological_order g) = n
  | Error e, Error e' -> QCheck2.Test.fail_reportf "error %S, reference %S" e e'
  | Ok _, Error e -> QCheck2.Test.fail_reportf "built; reference: %s" e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "%s; reference built" e
  | Ok _, Ok _ -> QCheck2.Test.fail_reportf "dag differs from the reference"

let stream_gen =
  QCheck2.Gen.(
    quad (int_range 1 30) order_gen fault_gen (int_bound 1_000_000))

let prop_builder_any_order =
  QCheck2.Test.make ~name:"builder: any arc order = buffered reference"
    ~count:500 stream_gen
    (fun (n, order, fault, seed) ->
      let rng = Random.State.make [| seed |] in
      let arcs = random_arcs rng n (Random.State.float rng 0.5) in
      let stream = inject rng n fault (arrange rng order arcs) in
      let b = Dag.Builder.create ~n () in
      add_all b stream;
      matches_reference n stream (Dag.Builder.build b))

(* Words allocated on the OCaml heap: minor allocations plus direct major
   ones (a large [Bytes.t] goes straight to the major heap). The minor
   count comes from [Gc.minor_words]: [Gc.counters]'s own can take in
   words allocated before a collection that falls inside the window. *)
let heap_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_family_build_heap () =
  (* a family's sorted, forward stream fills the CSR slabs directly: the
     OCaml heap sees a few bigarray headers and closures, never an
     8-byte-per-arc buffer (65,792 arcs would be 526 KB) *)
  ignore (Ic_families.Mesh.out_mesh 4);
  let before = heap_words () in
  let g = Ic_families.Mesh.out_mesh 256 in
  let bytes = (heap_words () -. before) *. float_of_int (Sys.word_size / 8) in
  check_int "arcs" 65_792 (Dag.n_arcs g);
  if bytes >= 16384.0 then
    Alcotest.failf "building out_mesh 256 allocated %.0f heap bytes" bytes

let snapshot_bytes g =
  let path = Filename.temp_file "ic_csr_test" ".icdag" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Dag.save g path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" e);
      In_channel.with_open_bin path In_channel.input_all)

let test_fills_same_bytes () =
  (* each family dag rebuilt from its own arcs: in [iter_arcs] order, and
     reversed, which forces the buffered fill (its 8-byte-per-arc buffer
     is the heap allocation checked below). Both must equal the family's
     dag and save to the same snapshot bytes. The first four families
     fill directly; the diamond is composed and fills buffered. *)
  let module F = Ic_families in
  List.iter
    (fun (name, g) ->
      let n = Dag.n_nodes g and m = Dag.n_arcs g in
      let labels =
        if Dag.has_labels g then Some (Array.init n (Dag.label g)) else None
      in
      let arcs = Array.make m (0, 0) and k = ref 0 in
      Dag.iter_arcs g (fun u v ->
          arcs.(!k) <- (u, v);
          incr k);
      let rebuild order =
        let b = Dag.Builder.create ?labels ~n ~hint:m () in
        let before = heap_words () in
        for i = 0 to m - 1 do
          let u, v = arcs.(order i) in
          Dag.Builder.add_arc b u v
        done;
        let bytes = (heap_words () -. before) *. float_of_int (Sys.word_size / 8) in
        (Dag.Builder.build_exn b, bytes)
      in
      let forward, _ = rebuild Fun.id in
      let reversed, buffered = rebuild (fun i -> m - 1 - i) in
      if buffered < float_of_int (8 * m) then
        Alcotest.failf "%s reversed: %.0f heap bytes, no arc buffer" name buffered;
      let saved = snapshot_bytes g in
      List.iter
        (fun (order, h) ->
          check (Printf.sprintf "%s %s: equal" name order) true (Dag.equal g h);
          check (Printf.sprintf "%s %s: same bytes" name order) true
            (snapshot_bytes h = saved))
        [ ("iter_arcs order", forward); ("reversed", reversed) ])
    [
      ("mesh:256", F.Mesh.out_mesh 256);
      ("butterfly:10", F.Butterfly_net.dag 10);
      ("prefix:4096", F.Prefix_dag.dag 4096);
      ("outtree:2.10", F.Out_tree.dag ~arity:2 ~depth:10);
      ("diamond:2.8", F.Diamond.(dag (complete ~arity:2 ~depth:8)));
    ]

(* An out-tree's dag numbers its nodes in pre-order, children left to
   right. The reference here is the definition, recursively: ids are
   handed out on the way down, and the arc list goes to [Dag.make]. *)
let preorder_dag shape =
  let module T = Ic_families.Out_tree in
  let next = ref 0 and arcs = ref [] in
  let rec go parent s =
    let id = !next in
    incr next;
    if parent >= 0 then arcs := (parent, id) :: !arcs;
    match s with T.Leaf -> () | T.Node cs -> List.iter (go id) cs
  in
  go (-1) shape;
  Dag.make_exn ~n:!next ~arcs:!arcs ()

let test_out_tree_numbering () =
  let module T = Ic_families.Out_tree in
  let rng = Random.State.make [| 0x7EE |] in
  let shapes =
    [ T.Leaf; T.complete ~arity:1 ~depth:5; T.complete ~arity:2 ~depth:6;
      T.complete ~arity:3 ~depth:4 ]
    @ List.init 30 (fun i ->
          T.random rng ~max_internal:(1 + (i * 3)) ~arity:(1 + (i mod 4)))
  in
  List.iteri
    (fun i shape ->
      check (Printf.sprintf "shape %d: pre-order dag" i) true
        (Dag.equal (preorder_dag shape) (T.dag_of_shape shape)))
    shapes

let test_out_tree_build_heap () =
  (* each node's child arcs are emitted when the node is numbered, so the
     stream is sorted and forward and fills the CSR directly: no buffer
     of a word per arc (outtree:2.14 has 32,766 arcs) *)
  ignore (Ic_families.Out_tree.dag ~arity:2 ~depth:2);
  let before = heap_words () in
  let g = Ic_families.Out_tree.dag ~arity:2 ~depth:14 in
  let bytes = (heap_words () -. before) *. float_of_int (Sys.word_size / 8) in
  check_int "arcs" 32_766 (Dag.n_arcs g);
  if bytes >= 16384.0 then
    Alcotest.failf "building outtree:2.14 allocated %.0f heap bytes" bytes

(* ancestor cone of [v] by an independent reverse DFS on the oracle *)
let cone_size { opred; _ } v =
  let seen = Array.make (Array.length opred) false in
  let rec go u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter go opred.(u)
    end
  in
  go v;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

let test_value_at_cone () =
  let rng = Random.State.make [| 0xC03E |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rng 25 in
    let arcs = random_arcs rng n 0.15 in
    let g = Dag.make_exn ~n ~arcs () in
    let oracle = oracle_of_arcs n arcs in
    let calls = ref 0 in
    let compute v parents =
      incr calls;
      v + Array.fold_left ( + ) 0 parents
    in
    let t = { Engine.dag = g; compute } in
    let full = Engine.execute t in
    for v = 0 to n - 1 do
      calls := 0;
      let value = Engine.value_at t v in
      check_int
        (Printf.sprintf "compute calls = cone size at %d" v)
        (cone_size oracle v) !calls;
      check_int (Printf.sprintf "value at %d" v) full.(v) value
    done;
    (* same along an explicit schedule *)
    let s = Ic_dag.Gen.random_schedule rng g in
    for v = 0 to n - 1 do
      calls := 0;
      let value = Engine.value_at ~schedule:s t v in
      check_int "scheduled cone calls" (cone_size oracle v) !calls;
      check_int "scheduled value" full.(v) value
    done
  done

let test_engine_matches_spec () =
  (* the scratch-buffer engine behaves like the obvious per-node-copy one *)
  let rng = Random.State.make [| 0xE4613E |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rng 25 in
    let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.2 in
    let compute v parents = (v * 31) + Array.fold_left ( + ) 7 parents in
    let got = Engine.execute { Engine.dag = g; compute } in
    let expected = Array.make n 0 in
    Array.iter
      (fun v ->
        expected.(v) <-
          compute v (Array.map (fun p -> expected.(p)) (Dag.pred g v)))
      (Dag.topological_order g);
    Alcotest.(check (array int)) "engine values" expected got
  done

(* peak resident set of this process so far, in kB (Linux VmHWM) *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> Some kb)
            else go ()
        in
        go ())

let test_big_mesh_smoke () =
  let big = Sys.getenv_opt "IC_BIG_TESTS" <> None in
  (* 4471 levels is just under 10^7 nodes; the default keeps CI fast *)
  let levels = if big then 4471 else 500 in
  let g = Ic_families.Mesh.out_mesh levels in
  let n = Dag.n_nodes g in
  check_int "node count" ((levels + 1) * (levels + 2) / 2) n;
  check_int "arc count" (levels * (levels + 1)) (Dag.n_arcs g);
  check_int "one source" 1 (Dag.n_sources g);
  let profile = Profile.run g (Schedule.natural g) in
  check_int "profile length" (n + 1) (Array.length profile);
  check_int "starts at the source" 1 profile.(0);
  check_int "drains to zero" 0 profile.(n);
  let widest = Array.fold_left max 0 profile in
  check "eligibility stays within a level's width" true
    (widest >= 1 && widest <= levels + 1);
  if big then
    (* the off-heap CSR keeps a ~10^7-node build + profile well under the
       old in-heap representation's >2 GB peak; generous headroom over the
       ~0.9 GB measured so the assertion only catches regressions back to
       heap-resident adjacency *)
    match max_rss_kb () with
    | None -> () (* not Linux; skip the RSS assertion *)
    | Some kb ->
      if kb > 1_500_000 then
        Alcotest.failf "max RSS %d kB exceeds the 1.5 GB budget" kb

let () =
  Alcotest.run "ic_dag.Csr"
    [
      ( "csr",
        [
          Alcotest.test_case "random dags vs oracle" `Quick test_oracle_random;
          Alcotest.test_case "builder = make" `Quick test_builder_matches_make;
          Alcotest.test_case "builder rejects" `Quick test_builder_rejects;
          Alcotest.test_case "builder buffered fill" `Quick
            test_builder_buffered_fill;
          Alcotest.test_case "both fills write the same bytes" `Quick
            test_fills_same_bytes;
          Alcotest.test_case "builder spent after build" `Quick
            test_builder_spent;
          Alcotest.test_case "builder add_arc allocation-free" `Quick
            test_builder_add_arc_unboxed;
          Alcotest.test_case "family build heap" `Quick test_family_build_heap;
          Alcotest.test_case "out-tree numbering" `Quick test_out_tree_numbering;
          Alcotest.test_case "out-tree build heap" `Quick
            test_out_tree_build_heap;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_builder_any_order ] );
      ( "engine",
        [
          Alcotest.test_case "value_at cone" `Quick test_value_at_cone;
          Alcotest.test_case "scratch engine spec" `Quick test_engine_matches_spec;
        ] );
      ( "large",
        [ Alcotest.test_case "big mesh smoke" `Slow test_big_mesh_smoke ] );
    ]
