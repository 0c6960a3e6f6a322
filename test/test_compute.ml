module C = Ic_compute
module Dag = Ic_dag.Dag

let check = Alcotest.(check bool)
let close ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

let cclose (a : Complex.t) (b : Complex.t) =
  Float.abs (a.re -. b.re) < 1e-6 && Float.abs (a.im -. b.im) < 1e-6

(* --- engine --- *)

let test_engine_basic () =
  let g = Dag.make_exn ~n:4 ~arcs:[ (0, 1); (0, 2); (1, 3); (2, 3) ] () in
  let compute v parents =
    if v = 0 then 1 else Array.fold_left ( + ) v parents
  in
  let values = C.Engine.execute { C.Engine.dag = g; compute } in
  Alcotest.(check (array int)) "values" [| 1; 2; 3; 8 |] values

let test_engine_schedule_agnostic () =
  (* any schedule computes the same values *)
  let g = Ic_families.Mesh.out_mesh 5 in
  let compute _v parents =
    if Array.length parents = 0 then 1 else Array.fold_left ( + ) 0 parents
  in
  let e = { C.Engine.dag = g; compute } in
  let a = C.Engine.execute e in
  let rng = Random.State.make [| 17 |] in
  let s = Ic_dag.Gen.random_schedule rng g in
  Alcotest.(check (array int)) "same values" a (C.Engine.execute ~schedule:s e)

let test_engine_rejects_misfit () =
  let g = Dag.empty 2 in
  let s = Ic_dag.Schedule.natural (Dag.empty 3) in
  match C.Engine.execute ~schedule:s { C.Engine.dag = g; compute = (fun _ _ -> 0) } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected schedule-size rejection"

(* --- quadrature (Section 3.2) --- *)

let test_quadrature_known_integrals () =
  let cases =
    [
      ("sin on [0,pi]", sin, 0.0, Float.pi, 2.0);
      ("x^2 on [0,3]", (fun x -> x *. x), 0.0, 3.0, 9.0);
      ("exp on [0,1]", exp, 0.0, 1.0, Float.exp 1.0 -. 1.0);
      ("1/(1+x^2) on [0,1]", (fun x -> 1.0 /. (1.0 +. (x *. x))), 0.0, 1.0, Float.pi /. 4.0);
    ]
  in
  List.iter
    (fun (name, f, lo, hi, expected) ->
      let r = C.Quadrature.integrate ~f ~lo ~hi ~tol:1e-8 () in
      if not (close ~eps:1e-3 r.C.Quadrature.value expected) then
        Alcotest.failf "%s: got %.6f, expected %.6f" name r.C.Quadrature.value expected)
    cases

let test_quadrature_dag_equals_reference () =
  let f x = sin (3.0 *. x) +. (0.5 *. x) in
  let r = C.Quadrature.integrate ~f ~lo:0.0 ~hi:2.0 ~tol:1e-7 () in
  let reference = C.Quadrature.reference ~f ~lo:0.0 ~hi:2.0 ~tol:1e-7 () in
  check "bitwise equal to plain recursion" true (r.C.Quadrature.value = reference)

let test_quadrature_simpson_exact_on_cubics () =
  let r =
    C.Quadrature.integrate ~rule:C.Quadrature.Simpson
      ~f:(fun x -> (x *. x *. x) -. x) ~lo:(-1.0) ~hi:3.0 ~tol:1e-10 ()
  in
  check "single task suffices" true (r.C.Quadrature.n_tasks = 1);
  check "exact" true (close ~eps:1e-9 r.C.Quadrature.value 16.0)

let test_quadrature_schedule_is_optimal_shape () =
  (* the adaptive diamond's schedule really is the Thm 2.1 schedule *)
  let r = C.Quadrature.integrate ~f:sqrt ~lo:0.0 ~hi:1.0 ~tol:1e-3 () in
  check "irregular subdivision happened" true (r.C.Quadrature.n_tasks > 3);
  match Ic_dag.Optimal.is_ic_optimal (Ic_families.Diamond.dag r.C.Quadrature.diamond) r.C.Quadrature.schedule with
  | Ok b -> check "IC-optimal" true b
  | Error (`Too_large _) -> () (* fine for big subdivisions *)

(* --- FFT / convolution (Section 5.2) --- *)

let prop_fft_matches_naive =
  QCheck2.Test.make ~name:"fft = naive dft" ~count:40
    QCheck2.Gen.(pair (int_range 1 6) (int_bound 10_000))
    (fun (d, seed) ->
      let n = 1 lsl d in
      let rng = Random.State.make [| seed |] in
      let input =
        Array.init n (fun _ ->
            { Complex.re = Random.State.float rng 2.0 -. 1.0;
              im = Random.State.float rng 2.0 -. 1.0 })
      in
      Array.for_all2 cclose (C.Fft.fft input) (C.Fft.dft_naive input))

let prop_fft_roundtrip =
  QCheck2.Test.make ~name:"ifft inverts fft" ~count:40
    QCheck2.Gen.(pair (int_range 1 7) (int_bound 10_000))
    (fun (d, seed) ->
      let n = 1 lsl d in
      let rng = Random.State.make [| seed |] in
      let input =
        Array.init n (fun _ ->
            { Complex.re = Random.State.float rng 2.0 -. 1.0;
              im = Random.State.float rng 2.0 -. 1.0 })
      in
      Array.for_all2 cclose (C.Fft.ifft (C.Fft.fft input)) input)

let test_fft_rejects_bad_length () =
  match C.Fft.fft [| Complex.one; Complex.zero; Complex.one |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected power-of-two check"

let test_bit_reverse () =
  Alcotest.(check int) "rev 3 bits of 0b110" 0b011 (C.Fft.bit_reverse ~bits:3 0b110);
  Alcotest.(check int) "rev 4 bits of 1" 8 (C.Fft.bit_reverse ~bits:4 1)

let test_parseval () =
  (* energy conservation distinguishes a true DFT from a lookalike *)
  let input = Array.init 8 (fun i -> { Complex.re = float_of_int i; im = 0.0 }) in
  let out = C.Fft.fft input in
  let energy a = Array.fold_left (fun acc z -> acc +. Complex.norm2 z) 0.0 a in
  check "Parseval" true (close ~eps:1e-6 (energy out) (8.0 *. energy input))

let prop_convolution =
  QCheck2.Test.make ~name:"fft polynomial product = naive convolution" ~count:40
    QCheck2.Gen.(
      pair
        (pair (int_range 1 12) (int_range 1 12))
        (int_bound 10_000))
    (fun ((la, lb), seed) ->
      let rng = Random.State.make [| seed |] in
      let coeffs l = Array.init l (fun _ -> Random.State.float rng 4.0 -. 2.0) in
      let a = coeffs la and b = coeffs lb in
      Array.for_all2 (fun x y -> close ~eps:1e-6 x y) (C.Convolution.naive a b)
        (C.Convolution.poly_mul_fft a b))

let test_convolution_formula () =
  (* A_k = sum a_i b_{k-i}: (1 + 2x)(3 + 4x) = 3 + 10x + 8x^2 *)
  Alcotest.(check (array (float 1e-9))) "by hand" [| 3.0; 10.0; 8.0 |]
    (C.Convolution.naive [| 1.0; 2.0 |] [| 3.0; 4.0 |])

(* --- sorting (eq. 5.1) --- *)

let prop_bitonic_sorts =
  QCheck2.Test.make ~name:"bitonic network sorts" ~count:60
    QCheck2.Gen.(pair (int_range 1 6) (int_bound 10_000))
    (fun (d, seed) ->
      let n = 1 lsl d in
      let rng = Random.State.make [| seed |] in
      let keys = Array.init n (fun _ -> Random.State.int rng 1000) in
      let expected = Array.copy keys in
      Array.sort compare expected;
      C.Sorting.sort keys = expected)

let test_sorting_duplicates_and_extremes () =
  let keys = [| 5; 5; 5; 5; min_int; max_int; 0; -1 |] in
  let expected = Array.copy keys in
  Array.sort compare expected;
  check "duplicates/extremes" true (C.Sorting.sort keys = expected)

let test_sorting_network_schedule_optimal () =
  (* the network is an iterated composition of B: pairing is IC-optimal *)
  let g = C.Sorting.network_dag 2 in
  match Ic_dag.Optimal.is_ic_optimal g (C.Sorting.schedule 2) with
  | Ok b -> check "IC-optimal" true b
  | Error (`Too_large _) -> Alcotest.fail "n=4 network should be brute-forceable"

let prop_oddeven_sorts =
  QCheck2.Test.make ~name:"odd-even merge network sorts" ~count:60
    QCheck2.Gen.(pair (int_range 1 6) (int_bound 10_000))
    (fun (d, seed) ->
      let n = 1 lsl d in
      let rng = Random.State.make [| seed |] in
      let keys = Array.init n (fun _ -> Random.State.int rng 1000) in
      let expected = Array.copy keys in
      Array.sort compare expected;
      C.Sorting.sort_oddeven keys = expected)

let test_oddeven_admits_no_optimum () =
  (* a striking contrast found by the exact verifier: the bitonic network
     (a pure iterated composition of B) admits an IC-optimal schedule, but
     Batcher's more comparator-efficient odd-even network does NOT - its
     pass-through chains are |>-incomparable with the comparator blocks.
     Efficiency in comparators trades away IC-optimality. *)
  let oe = C.Sorting.oddeven_dag 2 in
  let a = Result.get_ok (Ic_dag.Optimal.analyze oe) in
  check "odd-even admits no IC-optimal schedule" false a.Ic_dag.Optimal.admits;
  check "bitonic does" true
    (Result.get_ok (Ic_dag.Optimal.admits_ic_optimal (C.Sorting.network_dag 2)));
  (* our phase schedule is still near the (unattainable) ceiling *)
  let p = Ic_dag.Profile.run oe (C.Sorting.oddeven_schedule 2) in
  check "dominated by the ceiling" true (Ic_dag.Profile.dominates a.Ic_dag.Optimal.e_opt p);
  let off_by =
    Array.to_list (Array.mapi (fun i e -> e - p.(i)) a.Ic_dag.Optimal.e_opt)
    |> List.fold_left ( + ) 0
  in
  check "within 2 eligibility units of the ceiling overall" true (off_by <= 2)

let test_oddeven_fewer_comparators () =
  (* the efficiency claim behind the paper's reference [11] *)
  List.iter
    (fun d ->
      let bitonic, oddeven = C.Sorting.n_comparators d in
      check (Printf.sprintf "d=%d" d) true (oddeven < bitonic))
    [ 2; 3; 4; 5; 6 ]

let test_sort_floats () =
  let keys = [| 3.5; -1.0; 0.0; 2.25 |] in
  Alcotest.(check (array (float 0.0))) "floats" [| -1.0; 0.0; 2.25; 3.5 |]
    (C.Sorting.sort_floats keys)

(* --- scans (Section 6.1) --- *)

let prop_scan_matches_fold =
  QCheck2.Test.make ~name:"dag scan = sequential scan (non-commutative op)" ~count:60
    QCheck2.Gen.(pair (int_range 1 33) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      (* string concatenation: associative but NOT commutative, so order
         bugs cannot hide *)
      let xs = Array.init n (fun _ -> String.make 1 (Char.chr (97 + Random.State.int rng 26))) in
      C.Scan.scan ~op:( ^ ) xs = C.Scan.scan_seq ~op:( ^ ) xs)

let test_int_powers () =
  Alcotest.(check (array int)) "3^i mod 1000" [| 3; 9; 27; 81; 243; 729; 187; 561 |]
    (C.Scan.int_powers ~base:3 ~modulus:1000 8)

let test_complex_powers () =
  let omega = Complex.polar 1.0 (Float.pi /. 2.0) in
  let p = C.Scan.complex_powers omega 4 in
  check "i^4 = 1" true (cclose p.(3) Complex.one);
  check "i^2 = -1" true (cclose p.(1) { Complex.re = -1.0; im = 0.0 })

let test_matrix_powers () =
  (* a 3-cycle: A^3 = I *)
  let a = C.Bool_matrix.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  let p = C.Scan.matrix_powers a 3 in
  check "A^3 = I" true (C.Bool_matrix.equal p.(2) (C.Bool_matrix.identity 3))

(* --- paths (Fig. 16) --- *)

let prop_paths_match_reference =
  QCheck2.Test.make ~name:"path vectors = reference on random graphs" ~count:25
    QCheck2.Gen.(pair (int_range 2 8) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = C.Bool_matrix.random rng n ~density:0.3 in
      C.Paths.compute a ~k:4 = C.Paths.reference a ~k:4)

let test_paths_nine_node_example () =
  (* the paper's 9-node, k = 8 instance *)
  let a =
    C.Bool_matrix.of_edges 9
      [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4); (4, 5); (5, 6); (6, 7); (7, 8); (8, 0) ]
  in
  let m = C.Paths.compute a ~k:8 in
  check "matches reference" true (m = C.Paths.reference a ~k:8);
  (* cycle 0-1-2-3: a length-4 walk 0 -> 0 exists *)
  check "0 to 0 in 4" true m.(0).(0).(3);
  check "no 0 to 0 in 3" false m.(0).(0).(2)

(* --- matrix multiplication (Section 7) --- *)

let prop_matmul =
  QCheck2.Test.make ~name:"recursive dag matmul = naive" ~count:25
    QCheck2.Gen.(pair (int_range 0 4) (int_bound 10_000))
    (fun (p, seed) ->
      let n = 1 lsl p in
      let rng = Random.State.make [| seed |] in
      let a = C.Matmul.random rng n and b = C.Matmul.random rng n in
      C.Matmul.approx_equal (C.Matmul.multiply ~threshold:2 a b) (C.Matmul.naive a b))

let test_matmul_identity () =
  let n = 8 in
  let id = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  let rng = Random.State.make [| 12 |] in
  let a = C.Matmul.random rng n in
  check "A * I = A" true
    (C.Matmul.approx_equal (C.Matmul.multiply ~threshold:1 a id) a)

let test_matmul_noncommutative_order () =
  (* catches swapped operands in product tasks *)
  let a = [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  let b = [| [| 0.0; 0.0 |]; [| 1.0; 0.0 |] |] in
  let ab = C.Matmul.multiply ~threshold:1 a b in
  let ba = C.Matmul.multiply ~threshold:1 b a in
  check "AB has top-left 1" true (close ab.(0).(0) 1.0);
  check "BA has top-left 0" true (close ba.(0).(0) 0.0)

let test_matmul_rejects_non_power () =
  let m = [| [| 1.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |] in
  match C.Matmul.multiply m m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected power-of-two rejection"

(* --- wavefront (Section 4) --- *)

let test_pascal () =
  Alcotest.(check (array int)) "C(6, k)" [| 1; 6; 15; 20; 15; 6; 1 |] (C.Wavefront.pascal 6)

let prop_edit_distance =
  QCheck2.Test.make ~name:"dag edit distance = classic DP" ~count:60
    QCheck2.Gen.(pair (pair (string_size (int_range 1 8)) (string_size (int_range 1 8)))
                   unit)
    (fun ((s, t), ()) ->
      C.Wavefront.edit_distance s t = C.Wavefront.edit_distance_reference s t)

let test_edit_distance_known () =
  Alcotest.(check int) "kitten/sitting" 3 (C.Wavefront.edit_distance "kitten" "sitting");
  Alcotest.(check int) "same" 0 (C.Wavefront.edit_distance "abc" "abc");
  Alcotest.(check int) "to empty-ish" 3 (C.Wavefront.edit_distance "abc" "xyz")

let test_pyramid_reduce () =
  (* max pyramid = global max; sum pyramid = weighted (binomial) sum *)
  Alcotest.(check int) "max pooling" 9
    (C.Wavefront.pyramid_reduce ~op:max [| 3; 1; 9; 2; 5 |]);
  Alcotest.(check int) "single cell" 7 (C.Wavefront.pyramid_reduce ~op:max [| 7 |]);
  (* with (+), entry j is weighted by C(n-1, j) *)
  Alcotest.(check int) "binomial sum" (1 + (3 * 2) + (3 * 3) + 4)
    (C.Wavefront.pyramid_reduce ~op:( + ) [| 1; 2; 3; 4 |])

let prop_pyramid_max =
  QCheck2.Test.make ~name:"max pyramid computes the maximum" ~count:80
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let xs = Array.init n (fun _ -> Random.State.int rng 1000) in
      C.Wavefront.pyramid_reduce ~op:max xs = Array.fold_left max min_int xs)

(* the list-based grid and schedule the wavefront had before both were
   written from one arc enumerator, kept as the reference *)
let oracle_grid ~rows ~cols =
  let w = cols + 1 in
  let node i j = (i * w) + j in
  let arcs = ref [] in
  for i = 0 to rows do
    for j = 0 to cols do
      if i < rows then arcs := (node i j, node (i + 1) j) :: !arcs;
      if j < cols then arcs := (node i j, node i (j + 1)) :: !arcs;
      if i < rows && j < cols then arcs := (node i j, node (i + 1) (j + 1)) :: !arcs
    done
  done;
  Ic_dag.Dag.make_exn ~n:((rows + 1) * w) ~arcs:!arcs ()

let oracle_grid_schedule ~rows ~cols =
  let w = cols + 1 in
  let order = ref [] in
  for diag = rows + cols downto 0 do
    for i = min rows diag downto max 0 (diag - cols) do
      order := ((i * w) + diag - i) :: !order
    done
  done;
  Ic_dag.Schedule.of_array_exn (oracle_grid ~rows ~cols) (Array.of_list !order)

let test_grid_wavefront_schedule_valid () =
  for rows = 0 to 12 do
    for cols = 0 to 12 do
      let g = C.Wavefront.grid ~rows ~cols in
      let s = Ic_dag.Schedule.order (C.Wavefront.grid_schedule ~rows ~cols) in
      check "grid" true (Ic_dag.Dag.equal g (oracle_grid ~rows ~cols));
      Alcotest.(check (array int))
        (Printf.sprintf "grid %dx%d order" rows cols)
        (Ic_dag.Schedule.order (oracle_grid_schedule ~rows ~cols))
        s;
      check "valid" true (Ic_dag.Schedule.is_valid g s)
    done
  done

(* --- DLT (Section 6.2.1) --- *)

let prop_dlt_both_algorithms =
  QCheck2.Test.make ~name:"L_n and L'_n agree with direct evaluation" ~count:20
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 0 7))
    (fun (seed, k) ->
      let rng = Random.State.make [| seed |] in
      let x =
        Array.init 8 (fun _ ->
            { Complex.re = Random.State.float rng 2.0 -. 1.0;
              im = Random.State.float rng 2.0 -. 1.0 })
      in
      let omega = Complex.polar 1.0 (2.0 *. Float.pi /. 8.0) in
      let expected = C.Dlt.naive ~x ~omega ~k in
      cclose expected (C.Dlt.via_prefix ~x ~omega ~k)
      && cclose expected (C.Dlt.via_tree ~x ~omega ~k))

let test_dlt_transform () =
  let x = Array.init 4 (fun i -> { Complex.re = float_of_int i; im = 0.0 }) in
  let omega = Complex.polar 1.0 (2.0 *. Float.pi /. 4.0) in
  let ys = C.Dlt.transform C.Dlt.via_prefix ~x ~omega ~m:4 in
  (* with omega a root of unity the DLT is the DFT with positive sign:
     compare against naive evaluation *)
  Array.iteri
    (fun k y -> check "coefficient" true (cclose y (C.Dlt.naive ~x ~omega ~k)))
    ys

(* --- carry-lookahead addition (Section 6.1) --- *)

let test_carry_lookahead_by_hand () =
  (* 3 + 1 with 2-bit operands: 11 + 10? LSB-first: 3 = [1;1], 1 = [1;0];
     sum 4 = [0;0;1] *)
  Alcotest.(check (array bool)) "3 + 1 = 4"
    [| false; false; true |]
    (C.Carry_lookahead.add [| true; true |] [| true; false |]);
  Alcotest.(check int) "add_ints" 4 (C.Carry_lookahead.add_ints ~width:2 3 1)

let prop_carry_lookahead =
  QCheck2.Test.make ~name:"carry-lookahead = integer addition" ~count:120
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (x, y) -> C.Carry_lookahead.add_ints ~width:17 x y = x + y)

let test_bits_roundtrip () =
  Alcotest.(check int) "roundtrip" 0b101101
    (C.Carry_lookahead.int_of_bits (C.Carry_lookahead.bits_of_int ~width:8 0b101101))

let test_bool_matrix_ops () =
  let a = C.Bool_matrix.of_edges 3 [ (0, 1); (1, 2) ] in
  let a2 = C.Bool_matrix.mult a a in
  check "composition of steps" true (C.Bool_matrix.get a2 0 2);
  check "no self path" false (C.Bool_matrix.get a2 0 1);
  let s = C.Bool_matrix.add a a2 in
  check "union" true (C.Bool_matrix.get s 0 1 && C.Bool_matrix.get s 0 2);
  check "identity neutral" true
    (C.Bool_matrix.equal (C.Bool_matrix.mult a (C.Bool_matrix.identity 3)) a)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ic_compute"
    [
      ( "engine",
        [
          Alcotest.test_case "basic" `Quick test_engine_basic;
          Alcotest.test_case "schedule agnostic" `Quick test_engine_schedule_agnostic;
          Alcotest.test_case "rejects misfit" `Quick test_engine_rejects_misfit;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "known integrals" `Quick test_quadrature_known_integrals;
          Alcotest.test_case "dag equals reference" `Quick
            test_quadrature_dag_equals_reference;
          Alcotest.test_case "Simpson exact on cubics" `Quick
            test_quadrature_simpson_exact_on_cubics;
          Alcotest.test_case "schedule optimal" `Quick
            test_quadrature_schedule_is_optimal_shape;
        ] );
      ( "fft & convolution",
        Alcotest.test_case "rejects bad length" `Quick test_fft_rejects_bad_length
        :: Alcotest.test_case "bit reverse" `Quick test_bit_reverse
        :: Alcotest.test_case "Parseval" `Quick test_parseval
        :: Alcotest.test_case "convolution by hand" `Quick test_convolution_formula
        :: qcheck [ prop_fft_matches_naive; prop_fft_roundtrip; prop_convolution ] );
      ( "sorting",
        Alcotest.test_case "duplicates/extremes" `Quick test_sorting_duplicates_and_extremes
        :: Alcotest.test_case "network schedule optimal" `Quick
             test_sorting_network_schedule_optimal
        :: Alcotest.test_case "floats" `Quick test_sort_floats
        :: Alcotest.test_case "odd-even admits no optimum" `Quick
             test_oddeven_admits_no_optimum
        :: Alcotest.test_case "odd-even fewer comparators" `Quick
             test_oddeven_fewer_comparators
        :: qcheck [ prop_bitonic_sorts; prop_oddeven_sorts ] );
      ( "scans",
        Alcotest.test_case "integer powers" `Quick test_int_powers
        :: Alcotest.test_case "complex powers" `Quick test_complex_powers
        :: Alcotest.test_case "matrix powers" `Quick test_matrix_powers
        :: Alcotest.test_case "bool matrices" `Quick test_bool_matrix_ops
        :: Alcotest.test_case "carry-lookahead by hand" `Quick
             test_carry_lookahead_by_hand
        :: Alcotest.test_case "bit roundtrip" `Quick test_bits_roundtrip
        :: qcheck [ prop_scan_matches_fold; prop_carry_lookahead ] );
      ( "paths",
        Alcotest.test_case "nine-node example" `Quick test_paths_nine_node_example
        :: qcheck [ prop_paths_match_reference ] );
      ( "matmul",
        Alcotest.test_case "identity" `Quick test_matmul_identity
        :: Alcotest.test_case "noncommutative order" `Quick
             test_matmul_noncommutative_order
        :: Alcotest.test_case "rejects non-power" `Quick test_matmul_rejects_non_power
        :: qcheck [ prop_matmul ] );
      ( "wavefront",
        Alcotest.test_case "pascal" `Quick test_pascal
        :: Alcotest.test_case "edit distance known" `Quick test_edit_distance_known
        :: Alcotest.test_case "wavefront schedule valid" `Quick
             test_grid_wavefront_schedule_valid
        :: Alcotest.test_case "pyramid reduce" `Quick test_pyramid_reduce
        :: qcheck [ prop_edit_distance; prop_pyramid_max ] );
      ( "DLT",
        Alcotest.test_case "transform" `Quick test_dlt_transform
        :: qcheck [ prop_dlt_both_algorithms ] );
    ]
