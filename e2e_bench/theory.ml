(* 6. ic-profile: the paper's theory path, single-threaded. Build three
   families' dags, construct each one's IC-optimal schedule, and compute
   its eligibility profile twice: in bulk with [Profile.run] and by
   replaying the schedule through a [Frontier]. The two must agree. *)

module Dag = Ic_dag.Dag
module Frontier = Ic_dag.Frontier
module F = Ic_families

let fi = float_of_int

let mesh_levels = 512
let butterfly_dim = 14
let prefix_inputs = 1 lsl 16

let families =
  [
    ( "mesh",
      (fun () -> F.Mesh.out_mesh mesh_levels),
      fun () -> F.Mesh.out_schedule mesh_levels );
    ( "butterfly",
      (fun () -> F.Butterfly_net.dag butterfly_dim),
      fun () -> F.Butterfly_net.schedule butterfly_dim );
    ( "prefix",
      (fun () -> F.Prefix_dag.dag prefix_inputs),
      fun () -> F.Prefix_dag.schedule prefix_inputs );
  ]

(* the eligible count before the first and after every execution *)
let replay g order =
  let fr = Frontier.create g in
  let counts = Array.make (Array.length order + 1) 0 in
  counts.(0) <- Frontier.count fr;
  Array.iteri
    (fun i v ->
      Frontier.execute fr v;
      counts.(i + 1) <- Frontier.count fr)
    order;
  counts

type family_run = {
  nodes : int;
  build_s : float;
  work_s : float;  (** schedule + profile + replay *)
  cpu_s : float;
  agrees : bool;  (** [Profile.run] = the replay's counts *)
  layers : (string * float) list;
}

let ic_profile ~seed:_ =
  let run_unit ~traced =
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let words0 = Gc.minor_words () in
    let measured f =
      let p0 = E2e.process_cpu () in
      let r, s = f () in
      (r, s, E2e.process_cpu () -. p0)
    in
    let per_family =
      List.map
        (fun (fam, build, schedule) ->
          let g, build_s = E2e.timed ("dag.build." ^ fam) build in
          let s, sched_s, c1 = measured (fun () -> E2e.timed ("schedule." ^ fam) schedule) in
          let prof, prof_s, c2 =
            measured (fun () ->
                E2e.timed ("profile." ^ fam) (fun () -> Ic_dag.Profile.run g s))
          in
          let counts, replay_s, c3 =
            measured (fun () ->
                E2e.timed ("frontier.replay." ^ fam) (fun () ->
                    replay g (Ic_dag.Schedule.order s)))
          in
          let n = fi (Dag.n_nodes g) in
          let layers =
            [
              ("dag.build_ns_per_arc." ^ fam, build_s /. fi (Dag.n_arcs g) *. 1e9);
              ("schedule.build_ns_per_node." ^ fam, sched_s /. n *. 1e9);
              ("frontier.profile_ns_per_node." ^ fam, prof_s /. n *. 1e9);
              ("frontier.replay_ns_per_node." ^ fam, replay_s /. n *. 1e9);
            ]
          in
          {
            nodes = Dag.n_nodes g;
            build_s;
            work_s = sched_s +. prof_s +. replay_s;
            cpu_s = c1 +. c2 +. c3;
            agrees = prof = counts;
            layers;
          })
        families
    in
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 per_family in
    let tasks = List.fold_left (fun acc r -> acc + r.nodes) 0 per_family in
    let layers =
      if not traced then []
      else
        List.concat_map (fun r -> r.layers) per_family
        @ [
            ("gc.minor_words_per_task", (Gc.minor_words () -. words0) /. fi tasks);
            ( "gc.major_collections",
              fi ((Gc.quick_stat ()).Gc.major_collections - major0) );
          ]
    in
    {
      E2e.setup_s = sum (fun r -> r.build_s);
      samples =
        [
          {
            E2e.tasks;
            wall_s = sum (fun r -> r.work_s);
            cpu_s = sum (fun r -> r.cpu_s);
            layers;
          };
        ];
      attempted = tasks + List.length families;
      failed = List.length (List.filter (fun r -> not r.agrees) per_family);
    }
  in
  { E2e.run_unit; probes = (fun () -> []); finish = ignore }
