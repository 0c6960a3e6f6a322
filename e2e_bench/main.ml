(* The end-to-end benchmark: six workloads that drive the lease server,
   the multicore runtime and the theory path through their public
   functions, each in a process of its own. See README.md.

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
            [--json-out FILE] [--trace-out FILE]
     Run one workload for S seconds. Standard output ends with the
     benchmark's record line and then the result line: every end-to-end
     metric, or with --trace 1 every per-layer metric. --json-out appends
     the record line to FILE; --trace-out implies --trace 1 and writes the
     spans as a Chrome trace. Exits 1 when a correctness check failed.

   main.exe [--runs N] [--reverse] [--seed N] [...]
     Without --workload: every workload in turn, each as a child process
     of this executable, for seeds N .. N+runs-1; --reverse runs the
     workloads in reverse order. --trace-out FILE writes one trace per
     workload, FILE with the workload's name before the extension.

   main.exe --agree A.json B.json
     Compare two sets of record lines against BENCHMARK.json. *)

let workloads =
  [
    ("tcp-mesh", Served.tcp_mesh);
    ("tcp-durable", Served.tcp_durable);
    ("virtual-churn", Served.virtual_churn);
    ("par-fine", Par.par_fine);
    ("par-coarse", Par.par_coarse);
    ("ic-profile", Theory.ic_profile);
  ]

(* BENCHMARK.json's run_seconds *)
let default_seconds = 15

let workload = ref None
let seed = ref 0xBE7
let seconds = ref default_seconds
let trace = ref false
let json_out = ref None
let trace_out = ref None
let runs = ref 1
let reverse = ref false
let agree = ref None

let usage msg =
  prerr_endline ("e2e_bench: " ^ msg);
  exit 2

let int_arg name v =
  match int_of_string_opt v with
  | Some i when i >= 0 -> i
  | _ -> usage (Printf.sprintf "bad %s %s" name v)

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then
        usage
          ("unknown workload " ^ w ^ " (" ^ String.concat "|" (List.map fst workloads)
         ^ ")");
      workload := Some w;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := int_arg "--seconds" v;
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> usage ("bad --trace " ^ v));
      go rest
    | "--json-out" :: f :: rest ->
      json_out := Some f;
      go rest
    | "--trace-out" :: f :: rest ->
      trace_out := Some f;
      trace := true;
      go rest
    | "--runs" :: v :: rest ->
      runs := max 1 (int_arg "--runs" v);
      go rest
    | "--reverse" :: rest ->
      reverse := true;
      go rest
    | "--agree" :: a :: b :: rest ->
      agree := Some (a, b);
      go rest
    | arg :: _ -> usage ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv))

let run_one name =
  let w = (List.assoc name workloads) ~seed:!seed in
  let metrics, attempted, failed =
    E2e.run w ~seconds:(float_of_int !seconds) ~trace:!trace
  in
  (try Unix.rmdir E2e.work_dir with Unix.Unix_error _ -> ());
  let record =
    E2e.record_line ~workload:name ~seed:!seed
      ~pass:(if !trace then "traced" else "e2e")
      metrics
  in
  print_endline record;
  Option.iter
    (fun f ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 f
        (fun oc -> output_string oc (record ^ "\n")))
    !json_out;
  Option.iter E2e.write_chrome_trace !trace_out;
  print_endline (E2e.result_line ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)

(* one child process per (workload, seed), run to completion in turn *)
let run_all () =
  let names = List.map fst workloads in
  let names = if !reverse then List.rev names else names in
  let failures = ref 0 in
  List.iter
    (fun name ->
      for s = !seed to !seed + !runs - 1 do
        let opt flag = function Some v -> [ flag; v ] | None -> [] in
        let trace_file =
          Option.map
            (fun f -> Filename.remove_extension f ^ "." ^ name ^ Filename.extension f)
            !trace_out
        in
        let args =
          [
            Sys.executable_name; "--workload"; name; "--seed"; string_of_int s;
            "--seconds"; string_of_int !seconds; "--trace";
            (if !trace then "1" else "0");
          ]
          @ opt "--json-out" !json_out @ opt "--trace-out" trace_file
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
            Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ ->
          incr failures;
          Printf.eprintf "e2e_bench: %s (seed %d) failed\n%!" name s
      done)
    names;
  exit (if !failures = 0 then 0 else 1)

let () =
  parse_args ();
  match (!agree, !workload) with
  | Some (a, b), _ -> exit (if E2e.agree ~benchmark:"BENCHMARK.json" a b then 0 else 1)
  | None, Some name -> run_one name
  | None, None -> run_all ()
