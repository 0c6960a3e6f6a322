(* Parsing of dag-family specifications for the CLI, e.g. "mesh:12",
   "butterfly:4", "diamond:2x4", "matmul". *)

module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module F = Ic_families

type t = {
  spec : string;
  description : string;
  dag : Dag.t;
  schedule : Schedule.t;  (* the constructive IC-optimal schedule *)
}

let families_help =
  [
    ("outtree:A.D", "complete out-tree of arity A, depth D");
    ("intree:A.D", "complete in-tree of arity A, depth D");
    ("diamond:A.D", "symmetric diamond of a complete arity-A depth-D tree");
    ("mesh:L", "out-mesh (wavefront) with levels 0..L");
    ("inmesh:L", "in-mesh (pyramid) with levels 0..L");
    ("butterfly:D", "D-dimensional butterfly network (FFT shape)");
    ("prefix:N", "N-input parallel-prefix (scan) dag");
    ("ldag:N", "DLT dag L_N = P_N composed with an in-tree (N = 2^k)");
    ("lprime:N", "DLT dag L'_N built from a ternary V_3 out-tree (N = 2^k)");
    ("paths:K", "Fig. 16 path-computation dag for K logical powers (K = 2^k)");
    ("matmul", "the 20-task matrix-multiplication dag M");
    ("sortnet:D", "bitonic sorting network on 2^D keys");
    ("random:N.S", "random dag with N nodes from seed S (no optimal schedule known)");
    ("file:PATH", "dag loaded from a text file (see Ic_dag.Serial for the format)");
  ]

let int_of ~spec s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: %S is not an integer" spec s)

let two_ints ~spec s =
  match String.split_on_char '.' s with
  | [ a; b ] ->
    Result.bind (int_of ~spec a) (fun a ->
        Result.map (fun b -> (a, b)) (int_of ~spec b))
  | _ -> Error (Printf.sprintf "%s: expected A.D" spec)

let parse spec =
  (* the dag before its schedule: building it checks the size first *)
  let made description dag schedule =
    Ok { spec; description; dag; schedule = schedule () }
  in
  let name, arg =
    match String.index_opt spec ':' with
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (spec, "")
  in
  try
    match name with
    | "outtree" ->
      Result.bind (two_ints ~spec arg) (fun (arity, depth) ->
          let g = F.Out_tree.dag ~arity ~depth in
          made
            (Printf.sprintf "complete %d-ary out-tree of depth %d" arity depth)
            g (fun () -> F.Out_tree.schedule g))
    | "intree" ->
      Result.bind (two_ints ~spec arg) (fun (arity, depth) ->
          let g = F.In_tree.dag ~arity ~depth in
          made
            (Printf.sprintf "complete %d-ary in-tree of depth %d" arity depth)
            g (fun () -> F.In_tree.schedule g))
    | "diamond" ->
      Result.bind (two_ints ~spec arg) (fun (arity, depth) ->
          let d = F.Diamond.complete ~arity ~depth in
          made
            (Printf.sprintf "symmetric diamond, arity %d, depth %d" arity depth)
            (F.Diamond.dag d) (fun () -> F.Diamond.schedule d))
    | "mesh" ->
      Result.bind (int_of ~spec arg) (fun l ->
          made (Printf.sprintf "out-mesh with %d levels" (l + 1)) (F.Mesh.out_mesh l)
            (fun () -> F.Mesh.out_schedule l))
    | "inmesh" ->
      Result.bind (int_of ~spec arg) (fun l ->
          made (Printf.sprintf "in-mesh with %d levels" (l + 1)) (F.Mesh.in_mesh l)
            (fun () -> F.Mesh.in_schedule l))
    | "butterfly" ->
      Result.bind (int_of ~spec arg) (fun d ->
          made (Printf.sprintf "%d-dimensional butterfly network" d)
            (F.Butterfly_net.dag d) (fun () -> F.Butterfly_net.schedule d))
    | "prefix" ->
      Result.bind (int_of ~spec arg) (fun n ->
          made (Printf.sprintf "%d-input parallel-prefix dag" n) (F.Prefix_dag.dag n)
            (fun () -> F.Prefix_dag.schedule n))
    | "ldag" ->
      Result.bind (int_of ~spec arg) (fun n ->
          let t = F.Dlt_dag.l_dag n in
          made (Printf.sprintf "DLT dag L_%d" n) (F.Dlt_dag.dag t) (fun () ->
              F.Dlt_dag.schedule t))
    | "lprime" ->
      Result.bind (int_of ~spec arg) (fun n ->
          let t = F.Dlt_dag.l_prime_dag n in
          made (Printf.sprintf "DLT dag L'_%d" n) (F.Dlt_dag.dag t) (fun () ->
              F.Dlt_dag.schedule t))
    | "paths" ->
      Result.bind (int_of ~spec arg) (fun k ->
          made
            (Printf.sprintf "path-computation dag for %d powers" k)
            (F.Path_dag.dag k) (fun () -> F.Path_dag.schedule k))
    | "matmul" ->
      made "matrix-multiplication dag M" (F.Matmul_dag.dag ())
        F.Matmul_dag.schedule
    | "sortnet" ->
      Result.bind (int_of ~spec arg) (fun d ->
          made
            (Printf.sprintf "bitonic sorting network on %d keys" (1 lsl d))
            (Ic_compute.Sorting.network_dag d) (fun () ->
              Ic_compute.Sorting.schedule d))
    | "random" ->
      Result.bind (two_ints ~spec arg) (fun (n, seed) ->
          let rng = Random.State.make [| seed |] in
          let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.25 in
          made
            (Printf.sprintf "random dag, %d nodes, seed %d" n seed)
            g (fun () -> Ic_dag.Gen.random_nonsinks_first_schedule rng g))
    | "file" ->
      Result.bind (Ic_dag.Serial.load_file arg) (fun g ->
          (* no constructive schedule is known for arbitrary dags: use the
             exact witness when the dag is small enough, else fall back to
             the critical-path heuristic *)
          let schedule =
            match Ic_dag.Optimal.analyze ~max_ideals:200_000 g with
            | Ok { Ic_dag.Optimal.witness = Some w; _ } -> w
            | _ -> Ic_heuristics.Policy.(run critical_path g)
          in
          made (Printf.sprintf "dag from %s" arg) g (fun () -> schedule))
    | _ -> Error (Printf.sprintf "unknown family %S" name)
  with
  | Invalid_argument msg -> Error msg
  | Out_of_memory -> Error (spec ^ ": not enough memory to build this dag")
