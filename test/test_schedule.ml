module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule

let check = Alcotest.(check bool)

let diamond4 () = Dag.make_exn ~n:4 ~arcs:[ (0, 1); (0, 2); (1, 3); (2, 3) ] ()

let expect_error name result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error _ -> ()

let test_of_order () =
  let g = diamond4 () in
  (match Schedule.of_order g [ 0; 2; 1; 3 ] with
  | Ok s -> Alcotest.(check (array int)) "order kept" [| 0; 2; 1; 3 |] (Schedule.order s)
  | Error e -> Alcotest.fail e);
  expect_error "child before parent" (Schedule.of_order g [ 1; 0; 2; 3 ]);
  expect_error "missing node" (Schedule.of_order g [ 0; 1; 2 ]);
  expect_error "duplicate node" (Schedule.of_order g [ 0; 1; 1; 3 ]);
  expect_error "out of range" (Schedule.of_order g [ 0; 1; 2; 7 ])

let expect_message name expected result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error msg -> Alcotest.(check string) name expected msg

let test_first_error () =
  let g = diamond4 () in
  (* a duplicate before an out-of-range entry: the duplicate is reported *)
  expect_message "first bad entry" "node 1 scheduled twice"
    (Schedule.of_order g [ 0; 1; 1; 7 ]);
  expect_message "range before duplicate" "node 7 out of range"
    (Schedule.of_order g [ 0; 7; 1; 1 ]);
  expect_message "child before parent" "node 1 executed before its parent 0"
    (Schedule.of_order g [ 1; 0; 2; 3 ])

(* the diamond's arcs given only as an enumerator: no dag is built *)
let diamond_arcs f =
  f 0 1;
  f 0 2;
  f 1 3;
  f 2 3

let test_enumerator_path () =
  let validate a = Schedule.validate ~n:4 ~iter_arcs:diamond_arcs a in
  (match validate [| 0; 2; 1; 3 |] with
  | Ok s -> Alcotest.(check (array int)) "order kept" [| 0; 2; 1; 3 |] (Schedule.order s)
  | Error e -> Alcotest.fail e);
  expect_message "duplicate" "node 2 scheduled twice" (validate [| 0; 2; 2; 3 |]);
  expect_message "missing node" "schedule has 3 entries, dag has 4 nodes"
    (validate [| 0; 1; 2 |]);
  expect_message "out-of-range entry" "node -1 out of range" (validate [| 0; 1; -1; 3 |]);
  expect_message "child before parent" "node 3 executed before its parent 2"
    (validate [| 0; 1; 3; 2 |]);
  expect_message "out-of-range arc endpoint" "arc 2 -> 4 out of range"
    (Schedule.validate ~n:4
       ~iter_arcs:(fun f ->
         diamond_arcs f;
         f 2 4)
       [| 0; 1; 2; 3 |]);
  (* the nonsink variant finds the sinks from the same enumerator *)
  let a = [| 0; 1; 2; -5 |] in
  let s = Schedule.of_nonsink_prefix_exn ~n:4 ~iter_arcs:diamond_arcs a 3 in
  Alcotest.(check (array int)) "sink appended in place" [| 0; 1; 2; 3 |] (Schedule.order s);
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "nonsink prefix holding a sink" true
    (raises (fun () ->
         Schedule.of_nonsink_prefix_exn ~n:4 ~iter_arcs:diamond_arcs [| 0; 3; 1; 2 |] 3));
  check "nonsink prefix out of order" true
    (raises (fun () ->
         Schedule.of_nonsink_prefix_exn ~n:4 ~iter_arcs:diamond_arcs [| 1; 0; 2; 0 |] 3))

let test_of_nonsink_order () =
  let g = diamond4 () in
  match Schedule.of_nonsink_order g [ 0; 2; 1 ] with
  | Ok s ->
    Alcotest.(check (array int)) "sinks appended" [| 0; 2; 1; 3 |] (Schedule.order s);
    check "nonsinks first" true (Schedule.nonsinks_first g s)
  | Error e -> Alcotest.fail e

let test_nonsink_prefix () =
  let g = diamond4 () in
  let s = Schedule.of_order_exn g [ 0; 2; 1; 3 ] in
  Alcotest.(check (list int)) "prefix" [ 0; 2; 1 ] (Schedule.nonsink_prefix g s)

let test_prefix_set () =
  let g = diamond4 () in
  let s = Schedule.of_order_exn g [ 0; 2; 1; 3 ] in
  Alcotest.(check (array bool)) "prefix 2"
    [| true; false; true; false |]
    (Schedule.prefix_set s 2)

let test_natural () =
  let g = diamond4 () in
  check "natural is valid" true (Schedule.is_valid g (Schedule.order (Schedule.natural g)))

let test_nonsinks_first_negative () =
  (* two disjoint arcs: 0->1, 2->3; executing sink 1 before nonsink 2 *)
  let g = Dag.make_exn ~n:4 ~arcs:[ (0, 1); (2, 3) ] () in
  let s = Schedule.of_order_exn g [ 0; 1; 2; 3 ] in
  check "sink before nonsink detected" false (Schedule.nonsinks_first g s)

let prop_random_schedule_valid =
  QCheck2.Test.make ~name:"Gen.random_schedule is always a schedule" ~count:200
    QCheck2.Gen.(pair (int_range 1 25) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.3 in
      let s = Ic_dag.Gen.random_schedule rng g in
      Schedule.is_valid g (Schedule.order s))

let prop_nonsinks_first_generator =
  QCheck2.Test.make ~name:"Gen.random_nonsinks_first_schedule normal form" ~count:200
    QCheck2.Gen.(pair (int_range 1 25) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.3 in
      let s = Ic_dag.Gen.random_nonsinks_first_schedule rng g in
      Schedule.is_valid g (Schedule.order s) && Schedule.nonsinks_first g s)

(* the naive reference: first bad entry by a position array, then every
   parent of every node (via [Dag.pred]) placed earlier *)
let reference g a =
  let n = Dag.n_nodes g in
  if Array.length a <> n then Error "length"
  else begin
    let pos = Array.make n (-1) in
    let first = ref None in
    Array.iteri
      (fun i v ->
        if !first = None then
          if v < 0 || v >= n then first := Some (Printf.sprintf "node %d out of range" v)
          else if pos.(v) >= 0 then first := Some (Printf.sprintf "node %d scheduled twice" v)
          else pos.(v) <- i)
      a;
    match !first with
    | Some msg -> Error msg
    | None ->
      let forward = ref true in
      for v = 0 to n - 1 do
        Array.iter (fun p -> if pos.(p) > pos.(v) then forward := false) (Dag.pred g v)
      done;
      if !forward then Ok () else Error "backward"
  end

(* random dags with arrays that are often invalid: a schedule, a schedule
   with one swap, or arbitrary entries of a nearby length *)
let gen_case =
  QCheck2.Gen.(
    let* n = int_range 1 12 and* seed = int_bound 100_000 and* kind = int_bound 2 in
    let rng = Random.State.make [| seed |] in
    let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.35 in
    let* a =
      match kind with
      | 0 -> return (Array.copy (Schedule.order (Ic_dag.Gen.random_schedule rng g)))
      | 1 ->
        let* i = int_bound (n - 1) and* j = int_bound (n - 1) in
        let a = Array.copy (Schedule.order (Ic_dag.Gen.random_schedule rng g)) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t;
        return a
      | _ ->
        let* len = int_range (max 0 (n - 1)) (n + 1) in
        array_size (return len) (int_range (-1) n)
    in
    return (g, a))

let prop_single_validator =
  QCheck2.Test.make ~name:"validator agrees with the naive reference" ~count:1000
    ~print:(fun (g, a) ->
      Printf.sprintf "arcs %s, array %s"
        (String.concat " " (Dag.fold_arcs g [] (fun acc u v -> Printf.sprintf "%d>%d" u v :: acc)))
        (String.concat " " (Array.to_list (Array.map string_of_int a))))
    gen_case
    (fun (g, a) ->
      let expected = reference g a in
      let direct =
        Schedule.validate ~n:(Dag.n_nodes g) ~iter_arcs:(Dag.iter_arcs g) (Array.copy a)
      in
      Schedule.is_valid g a = Result.is_ok expected
      && Result.is_ok direct = Result.is_ok expected
      &&
      match (expected, direct) with
      | Error ("length" | "backward"), _ | Ok (), _ -> true
      | Error msg, Error got -> msg = got
      | Error _, Ok _ -> false)

let () =
  Alcotest.run "ic_dag.Schedule"
    [
      ( "validation",
        [
          Alcotest.test_case "of_order" `Quick test_of_order;
          Alcotest.test_case "first error reported" `Quick test_first_error;
          Alcotest.test_case "arc enumerator path" `Quick test_enumerator_path;
          Alcotest.test_case "of_nonsink_order" `Quick test_of_nonsink_order;
          Alcotest.test_case "nonsink_prefix" `Quick test_nonsink_prefix;
          Alcotest.test_case "prefix_set" `Quick test_prefix_set;
          Alcotest.test_case "natural" `Quick test_natural;
          Alcotest.test_case "nonsinks_first negative" `Quick test_nonsinks_first_negative;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_schedule_valid;
            prop_nonsinks_first_generator;
            prop_single_validator;
          ] );
    ]
