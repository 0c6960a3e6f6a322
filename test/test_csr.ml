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
  Alcotest.(check (list (pair int int))) "iter_arcs lexicographic" lex
    (List.rev (Dag.fold_arcs g [] (fun acc u v -> (u, v) :: acc)));
  (* the deprecated wrapper must stay consistent until it is removed *)
  Alcotest.(check (list (pair int int))) "arcs wrapper" lex
    (Dag.arcs g [@alert "-deprecated"])

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
    check_int "n_pending" (List.length arcs) (Dag.Builder.n_pending b);
    let g = Dag.Builder.build_exn b in
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

let test_builder_spill_equivalence () =
  (* the spill-to-disk path must produce exactly the in-memory dag, for
     both the explicit [spill_arcs] argument and the IC_BUILDER_SPILL
     environment default picked up by [create] *)
  let rng = Random.State.make [| 0x59111 |] in
  for _ = 1 to 10 do
    let n = 5 + Random.State.int rng 40 in
    let arcs = random_arcs rng n 0.3 in
    let reference = Dag.make_exn ~n ~arcs () in
    let b = Dag.Builder.create ~n ~spill_arcs:7 () in
    List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) arcs;
    check_int "spilled n_pending" (List.length arcs) (Dag.Builder.n_pending b);
    check "spill = in-memory" true (Dag.equal (Dag.Builder.build_exn b) reference);
    (* the builder stays reusable across builds on the spill path too *)
    check "spill rebuild" true (Dag.equal (Dag.Builder.build_exn b) reference)
  done;
  Unix.putenv "IC_BUILDER_SPILL" "5";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "IC_BUILDER_SPILL" "")
    (fun () ->
      let n = 30 in
      let arcs = random_arcs rng n 0.4 in
      let b = Dag.Builder.create ~n () in
      List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) arcs;
      if List.length arcs > 5 then
        check "env threshold spills" true (Dag.Builder.spilled b);
      check "env spill = in-memory" true
        (Dag.equal (Dag.Builder.build_exn b) (Dag.make_exn ~n ~arcs ())));
  (* validation errors surface identically through the spill path *)
  let spill_build n arcs =
    let b = Dag.Builder.create ~n ~spill_arcs:2 () in
    List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) arcs;
    Dag.Builder.build b
  in
  expect_error "spilled cycle" (spill_build 3 [ (0, 1); (1, 2); (2, 0) ]);
  expect_error "spilled duplicate" (spill_build 3 [ (0, 1); (1, 2); (0, 1) ]);
  expect_error "spilled range" (spill_build 3 [ (0, 1); (1, 2); (1, 7) ])

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
  check_int "all buffered" m (Dag.Builder.n_pending b)

let test_builder_reuse () =
  (* the builder stays usable after a build; the built dag is unaffected *)
  let b = Dag.Builder.create ~n:3 () in
  Dag.Builder.add_arc b 0 1;
  let g1 = Dag.Builder.build_exn b in
  Dag.Builder.add_arc b 1 2;
  let g2 = Dag.Builder.build_exn b in
  check_int "g1 arcs" 1 (Dag.n_arcs g1);
  check_int "g2 arcs" 2 (Dag.n_arcs g2);
  check "g2 has both" true (Dag.has_arc g2 0 1 && Dag.has_arc g2 1 2)

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
          Alcotest.test_case "builder spill equivalence" `Quick
            test_builder_spill_equivalence;
          Alcotest.test_case "builder reuse" `Quick test_builder_reuse;
          Alcotest.test_case "builder add_arc allocation-free" `Quick
            test_builder_add_arc_unboxed;
        ] );
      ( "engine",
        [
          Alcotest.test_case "value_at cone" `Quick test_value_at_cone;
          Alcotest.test_case "scratch engine spec" `Quick test_engine_matches_spec;
        ] );
      ( "large",
        [ Alcotest.test_case "big mesh smoke" `Slow test_big_mesh_smoke ] );
    ]
