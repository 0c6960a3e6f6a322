(* The binary snapshot format: save -> mmap load roundtrips, re-save byte
   equality, the Builder's buffered fill, and rejection of
   malformed files. *)

module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Profile = Ic_dag.Profile
module Gen = Ic_dag.Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let temp () = Filename.temp_file "ic_snapshot_test" ".icdag"

let with_temp f =
  let path = temp () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let save_exn g path =
  match Dag.save g path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e

let load_exn path =
  match Dag.load path with
  | Ok g -> g
  | Error e -> Alcotest.failf "load failed: %s" e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let same_dag name g h =
  check (name ^ ": structural equality") true (Dag.equal g h);
  check_int (name ^ ": n_sources") (Dag.n_sources g) (Dag.n_sources h);
  check (name ^ ": has_labels") true (Dag.has_labels g = Dag.has_labels h);
  for v = 0 to Dag.n_nodes g - 1 do
    if Dag.label g v <> Dag.label h v then Alcotest.failf "%s: label %d" name v;
    if Dag.pred g v <> Dag.pred h v then Alcotest.failf "%s: pred %d" name v
  done

let test_roundtrip_random () =
  let rng = Random.State.make [| 0x54A9 |] in
  for i = 1 to 20 do
    let n = 1 + Random.State.int rng 40 in
    let g = Gen.random_dag rng ~n ~arc_probability:0.25 in
    let g =
      if i mod 2 = 0 then
        Dag.relabel g (Array.init n (Printf.sprintf "task-%d"))
      else g
    in
    with_temp (fun path ->
        save_exn g path;
        let h = load_exn path in
        same_dag (Printf.sprintf "random %d" i) g h;
        (* a loaded dag profile-replays identically to the original *)
        let s = Schedule.natural g in
        check (Printf.sprintf "random %d: profile" i) true
          (Profile.run g s = Profile.run h (Schedule.natural h)))
  done

let test_roundtrip_edge_cases () =
  List.iter
    (fun (name, g) ->
      with_temp (fun path ->
          save_exn g path;
          same_dag name g (load_exn path)))
    [
      ("empty", Dag.empty 0);
      ("arcless", Dag.empty 17);
      ("single node", Dag.empty 1);
      ("chain", Dag.make_exn ~n:5 ~arcs:[ (0, 1); (1, 2); (2, 3); (3, 4) ] ());
      ( "empty labels",
        Dag.make_exn ~labels:[| ""; ""; "x" |] ~n:3 ~arcs:[ (0, 2) ] () );
    ]

let test_resave_byte_equal () =
  (* load is lossless: saving a loaded dag reproduces the file exactly *)
  let g =
    Dag.make_exn
      ~labels:(Array.init 30 (Printf.sprintf "n%d"))
      ~n:30
      ~arcs:(List.init 29 (fun i -> (i / 2, i + 1)))
      ()
  in
  with_temp (fun p1 ->
      with_temp (fun p2 ->
          save_exn g p1;
          save_exn (load_exn p1) p2;
          check "byte-identical" true (read_file p1 = read_file p2)))

let test_buffered_builder_roundtrip () =
  (* a reversed stream takes the buffered fill: its dag -> snapshot ->
     load equals the directly filled build of the sorted stream *)
  let n = 2000 in
  let arcs = List.init (n - 1) (fun i -> (i / 2, i + 1)) in
  let b = Dag.Builder.create ~n () in
  List.iter (fun (u, v) -> Dag.Builder.add_arc b u v) (List.rev arcs);
  let g = Dag.Builder.build_exn b in
  let reference = Dag.make_exn ~n ~arcs () in
  check "buffered = direct" true (Dag.equal g reference);
  with_temp (fun path ->
      save_exn g path;
      same_dag "buffered roundtrip" reference (load_exn path))

let expect_load_error name path =
  match Dag.load path with
  | Ok _ -> Alcotest.failf "%s: load should have failed" name
  | Error _ -> ()

let test_rejects_malformed () =
  (* missing file *)
  expect_load_error "missing" "/nonexistent/ic_snapshot.icdag";
  (* garbage magic *)
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.make 200 'x');
      close_out oc;
      expect_load_error "bad magic" path);
  (* too short for a header *)
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "ICDAGS01";
      close_out oc;
      expect_load_error "short header" path);
  (* valid snapshot truncated mid-slab *)
  let g = Dag.make_exn ~n:20 ~arcs:(List.init 19 (fun i -> (i, i + 1))) () in
  with_temp (fun path ->
      save_exn g path;
      let whole = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub whole 0 (String.length whole - 10));
      close_out oc;
      expect_load_error "truncated" path);
  (* valid snapshot with trailing junk *)
  with_temp (fun path ->
      save_exn g path;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "junk";
      close_out oc;
      expect_load_error "oversized" path)

let () =
  Alcotest.run "ic_dag.Snapshot"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "random dags" `Quick test_roundtrip_random;
          Alcotest.test_case "edge cases" `Quick test_roundtrip_edge_cases;
          Alcotest.test_case "re-save is byte-identical" `Quick
            test_resave_byte_equal;
          Alcotest.test_case "buffered builder" `Quick
            test_buffered_builder_roundtrip;
        ] );
      ( "errors",
        [ Alcotest.test_case "malformed files" `Quick test_rejects_malformed ] );
    ]
