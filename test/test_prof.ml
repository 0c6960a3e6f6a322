(* Tests for the Ic_prof self-profiling library: Span tree semantics
   (nesting, counts, recursion, the disabled fast path, a random-run
   model), Report rendering
   (JSON round-tripped through the bundled reader, collapsed stacks for
   flamegraph tools) and the Baseline perf-regression comparator. *)

module Span = Ic_prof.Span
module Report = Ic_prof.Report
module Baseline = Ic_prof.Baseline
module Json = Ic_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Every test leaves the global profiler disabled and empty. *)
let fresh () =
  Span.disable ();
  Span.reset ()

(* --- spans --- *)

let test_span_disabled_noop () =
  fresh ();
  check "disabled by default" false (Span.enabled ());
  Span.enter "ghost";
  Span.enter "ghost.child";
  Span.leave ();
  Span.leave ();
  let r = Span.time "ghost.time" (fun () -> 41 + 1) in
  check_int "time returns the value" 42 r;
  check "nothing recorded while disabled" true (Span.capture () = [])

let test_span_nesting_and_counts () =
  fresh ();
  Span.enable ();
  Span.enter "a";
  Span.enter "b";
  Span.leave ();
  Span.leave ();
  Span.enter "a";
  Span.leave ();
  Span.disable ();
  (match Span.capture () with
  | [ a ] ->
    check_str "top-level span" "a" a.Span.info_name;
    check_int "re-entry accumulates" 2 a.Span.info_count;
    check "non-negative time" true (a.Span.total_s >= 0.0);
    (match a.Span.info_children with
    | [ b ] ->
      check_str "nested child" "b" b.Span.info_name;
      check_int "child count" 1 b.Span.info_count;
      check "child within parent" true (b.Span.total_s <= a.Span.total_s)
    | l -> Alcotest.fail (Printf.sprintf "expected 1 child, got %d" (List.length l)))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 top span, got %d" (List.length l)));
  fresh ()

let test_span_recursion_nests () =
  fresh ();
  Span.enable ();
  Span.time "f" (fun () -> Span.time "f" (fun () -> ()));
  Span.disable ();
  (match Span.capture () with
  | [ f ] ->
    check_str "outer" "f" f.Span.info_name;
    check_int "outer once" 1 f.Span.info_count;
    (match f.Span.info_children with
    | [ inner ] ->
      check_str "recursive call is a child" "f" inner.Span.info_name;
      check_int "inner once" 1 inner.Span.info_count
    | _ -> Alcotest.fail "recursion must nest, not merge")
  | _ -> Alcotest.fail "expected a single top-level span");
  fresh ()

let test_span_time_exception_safe () =
  fresh ();
  Span.enable ();
  (match Span.time "boom" (fun () -> failwith "kaput") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "exception must propagate");
  (* the span was closed on the way out: a new span opens at top level,
     not under "boom" *)
  Span.time "after" (fun () -> ());
  Span.disable ();
  let names = List.map (fun i -> i.Span.info_name) (Span.capture ()) in
  check "raising span recorded" true (List.mem "boom" names);
  check "next span back at root" true (List.mem "after" names);
  fresh ()

let test_span_capture_sorted () =
  fresh ();
  Span.enable ();
  Span.time "zeta" (fun () -> ());
  Span.time "alpha" (fun () -> ());
  Span.time "mid" (fun () -> ());
  Span.disable ();
  let names = List.map (fun i -> i.Span.info_name) (Span.capture ()) in
  check "capture sorts by name" true (names = [ "alpha"; "mid"; "zeta" ]);
  Span.reset ();
  check "reset drops the tree" true (Span.capture () = []);
  fresh ()

(* --- report rendering (on synthetic trees: exact, deterministic) --- *)

let leaf =
  {
    Span.info_name = "leaf";
    info_count = 3;
    total_s = 0.25;
    minor_words = 1024.0;
    major_words = 0.0;
    info_children = [];
  }

let root =
  {
    Span.info_name = "root x";
    info_count = 1;
    total_s = 1.0;
    minor_words = 2048.0;
    major_words = 512.0;
    info_children = [ leaf ];
  }

let test_report_self_time () =
  check "self = total - children" true (Report.self_s root = 0.75);
  check "leaf self = total" true (Report.self_s leaf = 0.25);
  check "alloc sums heaps" true (Report.alloc_words root = 2560.0);
  check "self alloc nets children" true
    (Report.self_alloc_words root = 2560.0 -. 1024.0)

let test_report_text () =
  let txt = Report.to_text [ root ] in
  let has s =
    let n = String.length txt and m = String.length s in
    let rec go i = i + m <= n && (String.sub txt i m = s || go (i + 1)) in
    go 0
  in
  check "names rendered" true (has "root x" && has "leaf");
  check "counts rendered" true (has "3")

let test_report_json_roundtrip () =
  match Json.parse (Report.to_json [ root ]) with
  | Error e -> Alcotest.fail ("report JSON invalid: " ^ e)
  | Ok (Json.Array [ r ]) ->
    let str k = Option.bind (Json.member k r) Json.to_string in
    let num k = Option.bind (Json.member k r) Json.to_number in
    check "name survives" true (str "name" = Some "root x");
    check "count" true (num "count" = Some 1.0);
    check "total_ms" true (num "total_ms" = Some 1000.0);
    check "self_ms" true (num "self_ms" = Some 750.0);
    (match Json.member "children" r with
    | Some (Json.Array [ c ]) ->
      check "child name" true
        (Option.bind (Json.member "name" c) Json.to_string = Some "leaf");
      check "child leaf has no children" true
        (Json.member "children" c = Some (Json.Array []))
    | _ -> Alcotest.fail "children must be a 1-element array")
  | Ok _ -> Alcotest.fail "report must be a 1-element JSON array"

let test_report_collapsed () =
  let folded = Report.to_collapsed [ root ] in
  let lines = String.split_on_char '\n' (String.trim folded) in
  (* spaces in frame names become underscores; self time is integer
     microseconds *)
  check "two stacks" true (List.length lines = 2);
  check "root frame" true (List.mem "root_x 750000" lines);
  check "nested frame" true (List.mem "root_x;leaf 250000" lines);
  (* zero-self-time nodes are elided *)
  let hollow = { root with Span.total_s = 0.25 } in
  let folded = Report.to_collapsed [ hollow ] in
  check "zero self elided" true
    (String.trim folded = "root_x;leaf 250000")

(* --- baseline comparator --- *)

let rec_ b ms = { Baseline.bench = b; metrics = ms }

let test_baseline_fold_min () =
  let folded =
    Baseline.fold_min
      [
        rec_ "mesh" [ ("time_ms", 5.0); ("allocated_mb", 2.0) ];
        rec_ "mesh" [ ("time_ms", 3.0); ("allocated_mb", 4.0) ];
        rec_ "butterfly" [ ("time_ms", 7.0) ];
      ]
  in
  match folded with
  | [ m; b ] ->
    check_str "first-seen order kept" "mesh" m.Baseline.bench;
    check_str "second bench" "butterfly" b.Baseline.bench;
    check "per-metric minimum" true
      (List.assoc "time_ms" m.Baseline.metrics = 3.0
      && List.assoc "allocated_mb" m.Baseline.metrics = 2.0)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length l))

let test_baseline_gate () =
  let baseline = [ rec_ "mesh" [ ("time_ms", 100.0); ("max_rss_kb", 100.0) ] ] in
  (* 10% slower: inside the default 25% envelope *)
  let ok = rec_ "mesh" [ ("time_ms", 110.0); ("max_rss_kb", 110.0) ] in
  let cmp = Baseline.compare_runs ~baseline ~current:[ ok ] () in
  check "10%% passes" false (Baseline.regressed cmp);
  (* 50% slower: trips the time gate *)
  let slow = rec_ "mesh" [ ("time_ms", 150.0); ("max_rss_kb", 150.0) ] in
  let cmp = Baseline.compare_runs ~baseline ~current:[ slow ] () in
  check "50%% regresses" true (Baseline.regressed cmp);
  let tripped =
    List.filter (fun c -> c.Baseline.regressed) cmp
    |> List.map (fun c -> c.Baseline.metric)
  in
  check "only the gated metric trips" true (tripped = [ "time_ms" ]);
  check "ungated metric is informational" true
    (List.exists
       (fun c -> c.Baseline.metric = "max_rss_kb" && c.Baseline.threshold = None)
       cmp);
  (* a looser explicit threshold lets the same run through *)
  let cmp =
    Baseline.compare_runs ~thresholds:[ ("time_ms", 1.0) ] ~baseline
      ~current:[ slow ] ()
  in
  check "threshold override respected" false (Baseline.regressed cmp);
  (* min-of-k: one fast repetition among slow ones is what counts *)
  let cmp =
    Baseline.compare_runs ~baseline
      ~current:[ slow; rec_ "mesh" [ ("time_ms", 101.0) ] ]
      ()
  in
  check "min of k folds before comparing" false (Baseline.regressed cmp)

let test_baseline_load_formats () =
  let arr =
    {|[
  {"bench": "mesh", "phase": "large", "time_ms": 1.5, "allocated_mb": 0.5},
  {"bench": "fly", "time_ms": 2.0},
  {"no_bench": true}
]|}
  in
  (match Baseline.load_string arr with
  | Error e -> Alcotest.fail ("array load failed: " ^ e)
  | Ok rs ->
    check_int "bench-less records skipped" 2 (List.length rs);
    let m = List.hd rs in
    check_str "bench name" "mesh" m.Baseline.bench;
    check "numeric fields kept as metrics" true
      (List.assoc "time_ms" m.Baseline.metrics = 1.5
      && List.assoc "allocated_mb" m.Baseline.metrics = 0.5);
    check "non-numeric fields dropped" true
      (not (List.mem_assoc "phase" m.Baseline.metrics)));
  (* anything but an array would load as zero records and gate nothing *)
  List.iter
    (fun doc ->
      match Baseline.load_string doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "non-array baseline %S must error" doc)
    [
      {|{"bench": "mesh", "time_ms": 1.5}|};
      {|{"bench": "ok"}
{"bench": "fly", "time_ms": 2.0}|};
      "42";
      "not json at all";
    ];
  (* a baseline sharing no bench with the run yields no comparison, which
     the bench's --compare turns into exit 2 rather than a pass *)
  check "disjoint runs compare nothing" true
    (Baseline.compare_runs
       ~baseline:[ rec_ "mesh" [ ("time_ms", 1.0) ] ]
       ~current:[ rec_ "fly" [ ("time_ms", 1.0) ] ]
       ()
    = []);
  match Baseline.load_file "/nonexistent/baseline.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must error"

(* --- instrumented code records spans end to end --- *)

let test_instrumented_frontier () =
  fresh ();
  Span.enable ();
  let g = Ic_families.Mesh.out_mesh 6 in
  let order = Array.init (Ic_dag.Dag.n_nodes g) Fun.id in
  let _profile = Ic_dag.Frontier.profile g ~order in
  Span.disable ();
  let names = List.map (fun i -> i.Span.info_name) (Span.capture ()) in
  check "family constructor span" true (List.mem "families.mesh" names);
  check "frontier profile span" true (List.mem "frontier.profile" names);
  fresh ()

let test_profile_raw_agrees () =
  fresh ();
  let g = Ic_families.Mesh.out_mesh 6 in
  let order = Array.init (Ic_dag.Dag.n_nodes g) Fun.id in
  let a = Ic_dag.Frontier.profile g ~order in
  let b = Ic_dag.Frontier.profile_raw g ~order in
  check "profile_raw is the same computation" true (a = b);
  Span.enable ();
  let c = Ic_dag.Frontier.profile g ~order in
  Span.disable ();
  check "instrumentation is transparent" true (a = c);
  fresh ()

(* --- spans against a model --- *)

(* A random run of profiler calls. [Time (name, raises, body)] is
   [Span.time name] over [body], raising [Boom] after it when [raises]. *)
type op =
  | Enter of string
  | Leave
  | Time of string * bool * op list
  | Enable
  | Disable
  | Reset

exception Boom

let rec pp_op = function
  | Enter s -> "enter " ^ s
  | Leave -> "leave"
  | Time (s, r, body) ->
    Printf.sprintf "time %s%s [%s]" s
      (if r then " raising" else "")
      (String.concat "; " (List.map pp_op body))
  | Enable -> "enable"
  | Disable -> "disable"
  | Reset -> "reset"

let ops_gen =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let op =
    fix (fun self fuel ->
        let flat =
          [
            (4, map (fun s -> Enter s) name);
            (3, pure Leave);
            (2, pure Enable);
            (1, pure Disable);
            (1, pure Reset);
          ]
        in
        if fuel = 0 then frequency flat
        else
          frequency
            ((3, map3
                   (fun s r body -> Time (s, r, body))
                   name (frequency [ (3, pure false); (1, pure true) ])
                   (list_size (int_bound 4) (self (fuel - 1))))
            :: flat))
  in
  list_size (int_range 0 30) (op 3)

let rec run_span = function
  | Enter s -> Span.enter s
  | Leave -> Span.leave ()
  | Time (s, raises, body) ->
    Span.time s (fun () ->
        List.iter run_span body;
        if raises then raise Boom)
  | Enable -> Span.enable ()
  | Disable -> Span.disable ()
  | Reset -> Span.reset ()

(* The model: the open spans are the current call path (innermost
   first), a count per path, and the paths that lost an open interval
   to a [disable] (their totals may undercount their children's). *)
type model = {
  mutable on : bool;
  mutable path : string list;
  mutable counts : (string list * int) list;
  mutable cut : string list list;
}

let rec run_model m = function
  | Enter s ->
    if m.on then begin
      let path = s :: m.path in
      let k = Option.value ~default:0 (List.assoc_opt path m.counts) in
      m.counts <- (path, k + 1) :: List.remove_assoc path m.counts;
      m.path <- path
    end
  | Leave -> (
    match m.path with _ :: up when m.on -> m.path <- up | _ -> ())
  | Time (s, raises, body) ->
    let was_on = m.on in
    if was_on then run_model m (Enter s);
    let outcome =
      match
        List.iter (run_model m) body;
        if raises then raise Boom
      with
      | () -> None
      | exception Boom -> Some Boom
    in
    if was_on then run_model m Leave;
    Option.iter raise outcome
  | Enable -> m.on <- true
  | Disable ->
    m.cut <- List.rev (cut_paths m.path) @ m.cut;
    m.on <- false;
    m.path <- []
  | Reset ->
    m.counts <- [];
    m.cut <- [];
    m.path <- []

(* [a; b; c] is open inside [b; c] inside [c] *)
and cut_paths = function [] -> [] | _ :: up as p -> p :: cut_paths up

let prop_spans_match_model =
  QCheck2.Test.make ~name:"capture equals a list model" ~count:500
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    ops_gen
    (fun ops ->
      fresh ();
      let m = { on = false; path = []; counts = []; cut = [] } in
      List.iter
        (fun op ->
          (try run_span op with Boom -> ());
          try run_model m op with Boom -> ())
        ops;
      (* spans still open at capture lose their last interval too *)
      m.cut <- cut_paths m.path @ m.cut;
      let infos = Span.capture () in
      fresh ();
      (* preorder of a name-sorted tree = its root-first paths, sorted *)
      let rec flatten up (i : Span.info) =
        let path = i.Span.info_name :: up in
        (List.rev path, i.Span.info_count)
        :: List.concat_map (flatten path) i.Span.info_children
      in
      let got = List.concat_map (flatten []) infos in
      let want =
        List.sort compare (List.map (fun (p, k) -> (List.rev p, k)) m.counts)
      in
      let rec nested up (i : Span.info) =
        let path = i.Span.info_name :: up in
        List.for_all
          (fun (c : Span.info) ->
            (List.mem path m.cut || c.Span.total_s <= i.Span.total_s +. 1e-9)
            && nested path c)
          i.Span.info_children
      in
      let show l =
        String.concat ", "
          (List.map (fun (p, k) -> Printf.sprintf "%s=%d" (String.concat ";" p) k) l)
      in
      if got <> want then
        QCheck2.Test.fail_reportf "capture [%s], model [%s]" (show got)
          (show want);
      List.for_all (nested []) infos)

(* --- the simulator's spans are per run, not per event --- *)

let test_sim_spans_per_run () =
  let spans k =
    let g = Ic_families.Mesh.out_mesh k in
    let policy =
      Ic_heuristics.Policy.of_schedule "ic-optimal"
        (Ic_families.Mesh.out_schedule k)
    in
    let cfg =
      Ic_sim.Simulator.config
        ~faults:(Ic_fault.Plan.make ~fail_probability:0.1 ())
        ()
    in
    fresh ();
    Span.enable ();
    ignore
      (Ic_sim.Simulator.run cfg policy ~workload:Ic_sim.Workload.unit g);
    Span.disable ();
    let rec count infos =
      List.fold_left
        (fun acc i -> acc + i.Span.info_count + count i.Span.info_children)
        0 infos
    in
    let infos = Span.capture () in
    fresh ();
    check "sim.run recorded" true
      (List.exists (fun i -> i.Span.info_name = "sim.run") infos);
    count infos
  in
  check_int "same span count on mesh-8 and mesh-32" (spans 8) (spans 32)

let () =
  Alcotest.run "ic_prof"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_span_disabled_noop;
          Alcotest.test_case "nesting and counts" `Quick
            test_span_nesting_and_counts;
          Alcotest.test_case "recursion nests" `Quick test_span_recursion_nests;
          Alcotest.test_case "time is exception-safe" `Quick
            test_span_time_exception_safe;
          Alcotest.test_case "capture sorted, reset drops" `Quick
            test_span_capture_sorted;
          QCheck_alcotest.to_alcotest prop_spans_match_model;
        ] );
      ( "report",
        [
          Alcotest.test_case "self time and alloc" `Quick test_report_self_time;
          Alcotest.test_case "text table" `Quick test_report_text;
          Alcotest.test_case "json round-trip" `Quick test_report_json_roundtrip;
          Alcotest.test_case "collapsed stacks" `Quick test_report_collapsed;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "fold_min" `Quick test_baseline_fold_min;
          Alcotest.test_case "regression gate" `Quick test_baseline_gate;
          Alcotest.test_case "load formats" `Quick test_baseline_load_formats;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "instrumented spans appear" `Quick
            test_instrumented_frontier;
          Alcotest.test_case "profile_raw agrees" `Quick test_profile_raw_agrees;
          Alcotest.test_case "simulator spans per run" `Quick
            test_sim_spans_per_run;
        ] );
    ]
