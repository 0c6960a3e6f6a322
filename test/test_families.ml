module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Profile = Ic_dag.Profile
module Optimal = Ic_dag.Optimal
module F = Ic_families

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let assert_optimal name g s =
  match Optimal.is_ic_optimal g s with
  | Ok true -> ()
  | Ok false -> Alcotest.failf "%s: schedule not IC-optimal" name
  | Error (`Too_large k) -> Alcotest.failf "%s: too large for brute force (%d)" name k

(* The list-based constructors the families had before their schedules
   were written as flat arrays, kept as the reference: each builds its dag
   from an arc list, conses its nonsink order, and validates against that
   dag. *)
module Oracle = struct
  let of_arcs n arcs = Dag.make_exn ~n ~arcs ()

  let out_mesh levels =
    let node = F.Mesh.node in
    let arcs = ref [] in
    for k = 0 to levels - 1 do
      for j = 0 to k do
        arcs := (node k j, node (k + 1) (j + 1)) :: (node k j, node (k + 1) j) :: !arcs
      done
    done;
    of_arcs ((levels + 1) * (levels + 2) / 2) !arcs

  let out_schedule levels =
    let order = ref [] in
    for k = levels - 1 downto 0 do
      for j = k downto 0 do
        order := F.Mesh.node k j :: !order
      done
    done;
    Schedule.of_nonsink_order_exn (out_mesh levels) !order

  let butterfly d =
    let node = F.Butterfly_net.node ~d and rows = 1 lsl d in
    let arcs = ref [] in
    for l = 0 to d - 1 do
      for r = 0 to rows - 1 do
        arcs := (node l r, node (l + 1) (r lxor (1 lsl l))) :: (node l r, node (l + 1) r) :: !arcs
      done
    done;
    of_arcs ((d + 1) * rows) !arcs

  let butterfly_schedule d =
    let order = ref [] in
    for l = 0 to d - 1 do
      for r = 0 to (1 lsl d) - 1 do
        if r land (1 lsl l) = 0 then
          order :=
            F.Butterfly_net.node ~d l (r lor (1 lsl l))
            :: F.Butterfly_net.node ~d l r :: !order
      done
    done;
    Schedule.of_nonsink_order_exn (butterfly d) (List.rev !order)

  let prefix n =
    let p = F.Prefix_dag.levels n and node = F.Prefix_dag.node ~n in
    let arcs = ref [] in
    for j = 0 to p - 1 do
      let stride = 1 lsl j in
      for i = 0 to n - 1 do
        arcs := (node j i, node (j + 1) i) :: !arcs;
        if i + stride < n then arcs := (node j i, node (j + 1) (i + stride)) :: !arcs
      done
    done;
    of_arcs ((p + 1) * n) !arcs

  let prefix_schedule n =
    let order = ref [] in
    for j = 0 to F.Prefix_dag.levels n - 1 do
      let stride = 1 lsl j in
      for residue = 0 to stride - 1 do
        let columns = ref [] in
        let i = ref residue in
        while !i < n do
          columns := !i :: !columns;
          i := !i + stride
        done;
        List.iter (fun i -> order := F.Prefix_dag.node ~n j i :: !order) (List.rev !columns)
      done
    done;
    Schedule.of_nonsink_order_exn (prefix n) (List.rev !order)
end

let check_order name expected s =
  Alcotest.(check (array int)) name (Schedule.order expected) (Schedule.order s)

let test_flat_schedules_match_oracle () =
  for l = 0 to 40 do
    let g = F.Mesh.out_mesh l and s = F.Mesh.out_schedule l in
    check "mesh dag" true (Dag.equal g (Oracle.out_mesh l));
    check_order (Printf.sprintf "mesh %d" l) (Oracle.out_schedule l) s;
    check "mesh valid" true (Schedule.is_valid g (Schedule.order s))
  done;
  for d = 1 to 10 do
    let g = F.Butterfly_net.dag d and s = F.Butterfly_net.schedule d in
    check "butterfly dag" true (Dag.equal g (Oracle.butterfly d));
    check_order (Printf.sprintf "butterfly %d" d) (Oracle.butterfly_schedule d) s;
    check "butterfly valid" true (Schedule.is_valid g (Schedule.order s))
  done;
  for n = 1 to 300 do
    let g = F.Prefix_dag.dag n and s = F.Prefix_dag.schedule n in
    check "prefix dag" true (Dag.equal g (Oracle.prefix n));
    check_order (Printf.sprintf "prefix %d" n) (Oracle.prefix_schedule n) s;
    check "prefix valid" true (Schedule.is_valid g (Schedule.order s))
  done

let test_flat_schedules_reject_bad_sizes () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "negative mesh" true (raises (fun () -> F.Mesh.out_schedule (-1)));
  check "butterfly 0" true (raises (fun () -> F.Butterfly_net.schedule 0));
  check "prefix 0" true (raises (fun () -> F.Prefix_dag.schedule 0))

(* --- out-trees / in-trees (Section 3.1) --- *)

let test_out_tree_structure () =
  let g = F.Out_tree.dag ~arity:2 ~depth:3 in
  check_int "15 nodes" 15 (Dag.n_nodes g);
  check "recognized" true (F.Out_tree.is_out_tree g);
  check "counts" true
    (F.Out_tree.n_nodes (F.Out_tree.complete ~arity:2 ~depth:3) = 15
    && F.Out_tree.n_leaves (F.Out_tree.complete ~arity:2 ~depth:3) = 8);
  check "mesh is not an out-tree" false (F.Out_tree.is_out_tree (F.Mesh.out_mesh 2))

let test_out_tree_all_schedules_optimal () =
  (* "easily, every schedule for an out-tree is IC optimal!" *)
  let g = F.Out_tree.dag ~arity:2 ~depth:3 in
  check "bfs/dfs/random share one profile" true (F.Out_tree.schedules_all_optimal g);
  assert_optimal "bfs schedule" g (F.Out_tree.schedule g);
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 5 do
    assert_optimal "random schedule" g (Ic_dag.Gen.random_nonsinks_first_schedule rng g)
  done

let test_irregular_out_tree () =
  let rng = Random.State.make [| 11 |] in
  let shape = F.Out_tree.random rng ~max_internal:8 ~arity:2 in
  let g = F.Out_tree.dag_of_shape shape in
  check "random shape is an out-tree" true (F.Out_tree.is_out_tree g);
  check_int "internal count honoured" 17 (Dag.n_nodes g);
  assert_optimal "irregular out-tree" g (F.Out_tree.schedule g)

let test_in_tree_characterization () =
  (* [23]: IC-optimal iff the two sources of each Lambda run consecutively *)
  let g = F.In_tree.dag ~arity:2 ~depth:3 in
  let s = F.In_tree.schedule g in
  check "our schedule pairs" true (F.In_tree.lambda_runs_consecutive g s);
  assert_optimal "in-tree schedule" g s;
  (* a perturbed schedule that splits one pair fails both *)
  let order = Array.copy (Schedule.order s) in
  let tmp = order.(1) in
  order.(1) <- order.(2);
  order.(2) <- tmp;
  match Schedule.of_order g (Array.to_list order) with
  | Error _ -> () (* swap broke validity: fine, nothing to check *)
  | Ok bad ->
    check "split pair detected" false (F.In_tree.lambda_runs_consecutive g bad);
    check "split pair not optimal" false
      (Result.get_ok (Optimal.is_ic_optimal g bad))

let test_ternary_in_tree () =
  let g = F.In_tree.dag ~arity:3 ~depth:2 in
  check "is in-tree" true (F.In_tree.is_in_tree g);
  assert_optimal "ternary in-tree" g (F.In_tree.schedule g)

(* --- diamonds (Fig. 2) --- *)

let test_diamond_complete () =
  let d = F.Diamond.complete ~arity:2 ~depth:3 in
  let g = F.Diamond.dag d in
  check_int "15 + 15 - 8 merged nodes" 22 (Dag.n_nodes g);
  check_int "single source" 1 (List.length (Dag.sources g));
  check_int "single sink" 1 (List.length (Dag.sinks g));
  assert_optimal "diamond schedule" g (F.Diamond.schedule d)

let test_diamond_irregular () =
  let rng = Random.State.make [| 21 |] in
  let shape = F.Out_tree.random rng ~max_internal:6 ~arity:2 in
  let d = F.Diamond.symmetric shape in
  assert_optimal "irregular diamond" (F.Diamond.dag d) (F.Diamond.schedule d)

let test_diamond_mismatch () =
  match F.Diamond.make (F.Out_tree.dag ~arity:2 ~depth:2) (F.In_tree.dag ~arity:2 ~depth:3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected leaf-count mismatch"

(* --- alternating compositions, Fig. 4 / Table 1 --- *)

let small = F.Out_tree.complete ~arity:2 ~depth:1
let mid = F.Out_tree.complete ~arity:2 ~depth:2

let test_table1_type1 () =
  let c = F.Alternating.build_exn (F.Alternating.diamond_chain [ small; mid ]) in
  assert_optimal "D0 ^ D1" (Ic_core.Compose.dag (fst c)) (F.Alternating.schedule c)

let test_table1_type2 () =
  let c = F.Alternating.build_exn (F.Alternating.in_prefixed small [ mid ]) in
  assert_optimal "Tin ^ D1" (Ic_core.Compose.dag (fst c)) (F.Alternating.schedule c)

let test_table1_type3 () =
  let c = F.Alternating.build_exn (F.Alternating.out_suffixed [ small ] mid) in
  assert_optimal "D1 ^ Tout" (Ic_core.Compose.dag (fst c)) (F.Alternating.schedule c)

let test_fig4_unequal_counts () =
  (* out-tree with 2 leaves into in-tree with 4 sources: partial merge *)
  let c = F.Alternating.build_exn [ F.Alternating.Out small; F.Alternating.In mid ] in
  let g = Ic_core.Compose.dag (fst c) in
  check_int "two free sources remain" 3 (List.length (Dag.sources g));
  assert_optimal "unequal out^in" g (F.Alternating.schedule c)

(* --- meshes (Section 4) --- *)

let test_mesh_structure () =
  let g = F.Mesh.out_mesh 4 in
  check_int "15 nodes" 15 (Dag.n_nodes g);
  check_int "two arcs per non-final node" 20 (Dag.n_arcs g);
  check "last-level nodes are sinks" true (Dag.is_sink g (F.Mesh.node 4 2));
  check "dual relation" true (Dag.equal (F.Mesh.in_mesh 4) (Dag.dual g))

let test_mesh_schedules () =
  List.iter
    (fun l ->
      assert_optimal "out-mesh" (F.Mesh.out_mesh l) (F.Mesh.out_schedule l);
      assert_optimal "in-mesh" (F.Mesh.in_mesh l) (F.Mesh.in_schedule l))
    [ 0; 1; 2; 3; 5; 7 ]

let test_mesh_non_wavefront_suboptimal () =
  (* depth-first into the mesh instead of wavefront order *)
  let g = F.Mesh.out_mesh 3 in
  let bad =
    Schedule.of_nonsink_order_exn g
      [ F.Mesh.node 0 0; F.Mesh.node 1 0; F.Mesh.node 2 0; F.Mesh.node 1 1;
        F.Mesh.node 2 1; F.Mesh.node 2 2 ]
  in
  check "depth-first not optimal" false (Result.get_ok (Optimal.is_ic_optimal g bad))

(* --- butterflies (Section 5) --- *)

let test_butterfly_structure () =
  let g = F.Butterfly_net.dag 3 in
  check_int "32 nodes" 32 (Dag.n_nodes g);
  check_int "48 arcs" 48 (Dag.n_arcs g);
  check "self-dual" true (Ic_dag.Iso.isomorphic g (Dag.dual g))

let test_butterfly_schedules () =
  List.iter
    (fun d ->
      let g = F.Butterfly_net.dag d in
      let s = F.Butterfly_net.schedule d in
      check "pairs consecutive" true (F.Butterfly_net.pairs_consecutive d s);
      assert_optimal "butterfly" g s)
    [ 1; 2; 3 ]

let test_butterfly_characterization_negative () =
  (* row-major level order breaks pairs for d >= 2 and loses optimality *)
  let d = 2 in
  let g = F.Butterfly_net.dag d in
  let order =
    List.concat
      (List.init d (fun l ->
           List.init 4 (fun r -> F.Butterfly_net.node ~d l r)))
  in
  let s = Schedule.of_nonsink_order_exn g order in
  check "row-major splits pairs at level 1" false (F.Butterfly_net.pairs_consecutive d s);
  check "row-major not optimal" false (Result.get_ok (Optimal.is_ic_optimal g s))

(* --- parallel-prefix (Section 6.1) --- *)

let test_prefix_structure () =
  check_int "levels of P_8" 3 (F.Prefix_dag.levels 8);
  check_int "levels of P_5" 3 (F.Prefix_dag.levels 5);
  check_int "P_8 nodes" 32 (Dag.n_nodes (F.Prefix_dag.dag 8));
  check_int "P_8 combines" 17 (List.length (F.Prefix_dag.combines 8))

let test_prefix_schedules () =
  List.iter
    (fun n -> assert_optimal "prefix" (F.Prefix_dag.dag n) (F.Prefix_dag.schedule n))
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_prefix_decomposition_blocks () =
  (* the N-dag components of P_8 are N_8, N_4, N_4, N_2 x4 (Fig. 12) *)
  let d = F.Prefix_dag.n_decomposition 8 in
  let sizes =
    List.map
      (fun (g, _) -> List.length (Dag.sources g))
      (Ic_core.Compose.components d.F.Prefix_dag.compose)
  in
  Alcotest.(check (list int)) "N-dag sizes" [ 8; 4; 4; 2; 2; 2; 2 ] sizes

(* --- DLT dags (Section 6.2.1) --- *)

let test_l_dag () =
  let t = F.Dlt_dag.l_dag 8 in
  let g = F.Dlt_dag.dag t in
  check_int "L_8 nodes" 39 (Dag.n_nodes g);
  assert_optimal "L_4" (F.Dlt_dag.dag (F.Dlt_dag.l_dag 4)) (F.Dlt_dag.schedule (F.Dlt_dag.l_dag 4));
  assert_optimal "L_8" g (F.Dlt_dag.schedule t)

let test_l_prime_dag () =
  let t = F.Dlt_dag.l_prime_dag 8 in
  let g = F.Dlt_dag.dag t in
  (* ternary tree: 10 nodes; in-tree: 15; merged: 7 *)
  check_int "L'_8 nodes" 18 (Dag.n_nodes g);
  assert_optimal "L'_4" (F.Dlt_dag.dag (F.Dlt_dag.l_prime_dag 4)) (F.Dlt_dag.schedule (F.Dlt_dag.l_prime_dag 4));
  assert_optimal "L'_8" g (F.Dlt_dag.schedule t)

let test_ternary_tree () =
  let g = F.Dlt_dag.ternary_tree 7 in
  check "is out-tree" true (F.Out_tree.is_out_tree g);
  check_int "7 leaves" 7 (List.length (Dag.sinks g));
  check_int "10 nodes" 10 (Dag.n_nodes g);
  match F.Dlt_dag.ternary_tree 4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "even leaf count should be rejected"

(* --- matmul dag (Section 7) --- *)

let test_matmul_dag () =
  let g = F.Matmul_dag.dag () in
  check_int "20 nodes" 20 (Dag.n_nodes g);
  check_int "8 sources" 8 (List.length (Dag.sources g));
  check_int "4 sinks" 4 (List.length (Dag.sinks g));
  Alcotest.(check string) "labels" "AE+BG" (Dag.label g 16);
  assert_optimal "M" g (F.Matmul_dag.schedule ())

let test_matmul_boxed_order () =
  (* the paper's boxed schedule: products become eligible in this order *)
  Alcotest.(check (list string)) "boxed product order"
    [ "AE"; "CE"; "CF"; "AF"; "BG"; "DG"; "DH"; "BH" ]
    (F.Matmul_dag.product_eligibility_order ())

let test_matmul_products_wired_right () =
  let g = F.Matmul_dag.dag () in
  let parents_of label =
    match Dag.find_label g label with
    | Some v -> List.sort compare (List.map (Dag.label g) (Array.to_list (Dag.pred g v)))
    | None -> Alcotest.failf "missing node %s" label
  in
  Alcotest.(check (list string)) "AE" [ "A"; "E" ] (parents_of "AE");
  Alcotest.(check (list string)) "DH" [ "D"; "H" ] (parents_of "DH");
  Alcotest.(check (list string)) "AE+BG" [ "AE"; "BG" ] (parents_of "AE+BG");
  Alcotest.(check (list string)) "CF+DH" [ "CF"; "DH" ] (parents_of "CF+DH")

(* --- the iff-characterizations, both directions, randomized --- *)

let prop_in_tree_iff =
  (* [23]: a schedule for an in-tree is IC-optimal IFF it executes the
     sources of each Lambda copy consecutively. Sample random schedules of
     a random in-tree and check the equivalence both ways. *)
  QCheck2.Test.make ~name:"in-tree: pairing <=> IC-optimal" ~count:80
    QCheck2.Gen.(pair (int_range 1 5) (int_bound 10_000))
    (fun (k, seed) ->
      let rng = Random.State.make [| seed |] in
      let shape = F.Out_tree.random rng ~max_internal:k ~arity:2 in
      let g = F.In_tree.dag_of_shape shape in
      match Optimal.e_opt g with
      | Error _ -> true
      | Ok opt ->
        List.for_all
          (fun _ ->
            let s = Ic_dag.Gen.random_nonsinks_first_schedule rng g in
            let pairing = F.In_tree.lambda_runs_consecutive g s in
            let optimal = Profile.run g s = opt in
            pairing = optimal)
          (List.init 8 Fun.id))

let prop_butterfly_iff =
  (* Section 5.1: for iterated compositions of B, IC-optimal IFF the two
     sources of every copy run consecutively (checked on B_2) *)
  QCheck2.Test.make ~name:"butterfly: pairs-consecutive <=> IC-optimal" ~count:60
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d = 2 in
      let g = F.Butterfly_net.dag d in
      let opt = Result.get_ok (Optimal.e_opt g) in
      let s = Ic_dag.Gen.random_nonsinks_first_schedule rng g in
      F.Butterfly_net.pairs_consecutive d s = (Profile.run g s = opt))

(* --- the path dag (Fig. 16) --- *)

let test_path_dag () =
  let g = F.Path_dag.dag 8 in
  check "same shape as L_8" true (Dag.equal g (F.Dlt_dag.dag (F.Dlt_dag.l_dag 8)));
  assert_optimal "path dag k=4" (F.Path_dag.dag 4) (F.Path_dag.schedule 4)

let () =
  Alcotest.run "ic_families"
    [
      ( "trees",
        [
          Alcotest.test_case "out-tree structure" `Quick test_out_tree_structure;
          Alcotest.test_case "all out-tree schedules optimal" `Quick
            test_out_tree_all_schedules_optimal;
          Alcotest.test_case "irregular out-tree" `Quick test_irregular_out_tree;
          Alcotest.test_case "in-tree iff characterization" `Quick
            test_in_tree_characterization;
          Alcotest.test_case "ternary in-tree" `Quick test_ternary_in_tree;
        ] );
      ( "diamonds & alternations",
        [
          Alcotest.test_case "complete diamond" `Quick test_diamond_complete;
          Alcotest.test_case "irregular diamond" `Quick test_diamond_irregular;
          Alcotest.test_case "mismatched diamond rejected" `Quick test_diamond_mismatch;
          Alcotest.test_case "Table 1 type 1" `Quick test_table1_type1;
          Alcotest.test_case "Table 1 type 2" `Quick test_table1_type2;
          Alcotest.test_case "Table 1 type 3" `Quick test_table1_type3;
          Alcotest.test_case "Fig 4 unequal counts" `Quick test_fig4_unequal_counts;
        ] );
      ( "flat schedules",
        [
          Alcotest.test_case "same orders as the list oracle" `Quick
            test_flat_schedules_match_oracle;
          Alcotest.test_case "bad sizes rejected" `Quick
            test_flat_schedules_reject_bad_sizes;
        ] );
      ( "meshes",
        [
          Alcotest.test_case "structure" `Quick test_mesh_structure;
          Alcotest.test_case "wavefront schedules optimal" `Quick test_mesh_schedules;
          Alcotest.test_case "non-wavefront suboptimal" `Quick
            test_mesh_non_wavefront_suboptimal;
        ] );
      ( "butterflies",
        [
          Alcotest.test_case "structure" `Quick test_butterfly_structure;
          Alcotest.test_case "pairing schedules optimal" `Quick test_butterfly_schedules;
          Alcotest.test_case "characterization negative" `Quick
            test_butterfly_characterization_negative;
        ] );
      ( "parallel prefix",
        [
          Alcotest.test_case "structure" `Quick test_prefix_structure;
          Alcotest.test_case "schedules optimal" `Quick test_prefix_schedules;
          Alcotest.test_case "Fig 12 N-dag sizes" `Quick test_prefix_decomposition_blocks;
        ] );
      ( "DLT",
        [
          Alcotest.test_case "L_n" `Quick test_l_dag;
          Alcotest.test_case "L'_n" `Quick test_l_prime_dag;
          Alcotest.test_case "ternary tree" `Quick test_ternary_tree;
        ] );
      ( "matrix multiplication",
        [
          Alcotest.test_case "M dag" `Quick test_matmul_dag;
          Alcotest.test_case "boxed product order" `Quick test_matmul_boxed_order;
          Alcotest.test_case "wiring" `Quick test_matmul_products_wired_right;
        ] );
      ("paths", [ Alcotest.test_case "Fig 16 dag" `Quick test_path_dag ]);
      ( "iff characterizations",
        List.map QCheck_alcotest.to_alcotest [ prop_in_tree_iff; prop_butterfly_iff ] );
    ]
