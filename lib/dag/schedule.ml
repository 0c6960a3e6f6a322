type t = int array

type arcs = (int -> int -> unit) -> unit

let order s = s
let length = Array.length

(* The one validation core: [a] must list each of [0 .. n-1] exactly once,
   and every arc [iter_arcs] enumerates must go forward in it. Reports the
   first offending entry, else the first backward arc in enumeration
   order. Takes ownership of [a]. *)
let check ~label ~n ~(iter_arcs : arcs) a =
  let len = Array.length a in
  if len <> n then
    Error (Printf.sprintf "schedule has %d entries, dag has %d nodes" len n)
  else begin
    let pos = Array.make n (-1) in
    let rec place i =
      if i = n then None
      else begin
        let v = Array.unsafe_get a i in
        if v < 0 || v >= n then Some (Printf.sprintf "node %d out of range" v)
        else if Array.unsafe_get pos v >= 0 then
          Some (Printf.sprintf "node %d scheduled twice" v)
        else begin
          Array.unsafe_set pos v i;
          place (i + 1)
        end
      end
    in
    match place 0 with
    | Some msg -> Error msg
    | None -> (
      let exception Bad of string in
      match
        iter_arcs (fun u v ->
            if u < 0 || u >= n || v < 0 || v >= n then
              raise (Bad (Printf.sprintf "arc %d -> %d out of range" u v))
            else if Array.unsafe_get pos u >= Array.unsafe_get pos v then
              raise
                (Bad
                   (Printf.sprintf "node %s executed before its parent %s"
                      (label v) (label u))))
      with
      | () -> Ok a
      | exception Bad msg -> Error msg)
  end

(* [a.(0 .. k-1)] is a nonsink order; append the sinks (nodes that are the
   tail of no arc) ascending, found in one pass of [iter_arcs], and check.
   [a] is reused when it has exactly the room the sinks need. *)
let check_nonsinks ~label ~n ~(iter_arcs : arcs) a k =
  let tail = Bytes.make (max 0 n) '\000' in
  iter_arcs (fun u _ -> if u >= 0 && u < n then Bytes.unsafe_set tail u '\001');
  let sinks = ref 0 in
  for v = 0 to n - 1 do
    if Bytes.unsafe_get tail v = '\000' then incr sinks
  done;
  let a =
    if Array.length a = k + !sinks then a
    else begin
      let b = Array.make (k + !sinks) 0 in
      Array.blit a 0 b 0 k;
      b
    end
  in
  let i = ref k in
  for v = 0 to n - 1 do
    if Bytes.unsafe_get tail v = '\000' then begin
      Array.unsafe_set a !i v;
      incr i
    end
  done;
  check ~label ~n ~iter_arcs a

let get_exn who = function
  | Ok s -> s
  | Error msg -> invalid_arg (who ^ ": " ^ msg)

let validate ~n ~iter_arcs a = check ~label:string_of_int ~n ~iter_arcs a

let validate_exn ~n ~iter_arcs a =
  get_exn "Schedule.validate_exn" (validate ~n ~iter_arcs a)

let of_nonsink_prefix_exn ~n ~iter_arcs a k =
  if k < 0 || k > Array.length a then
    invalid_arg "Schedule.of_nonsink_prefix_exn: prefix length out of bounds";
  get_exn "Schedule.of_nonsink_prefix_exn"
    (check_nonsinks ~label:string_of_int ~n ~iter_arcs a k)

(* the [Dag.t] entry points: the same core over the dag's own arcs, with
   the dag's labels in messages *)
let of_dag g a =
  check ~label:(Dag.label g) ~n:(Dag.n_nodes g) ~iter_arcs:(Dag.iter_arcs g) a

let of_order g nodes = of_dag g (Array.of_list nodes)
let of_order_exn g nodes = get_exn "Schedule.of_order_exn" (of_order g nodes)
let of_array_exn g a = get_exn "Schedule.of_array_exn" (of_dag g (Array.copy a))

let of_nonsink_order g nonsinks =
  let a = Array.of_list nonsinks in
  check_nonsinks ~label:(Dag.label g) ~n:(Dag.n_nodes g)
    ~iter_arcs:(Dag.iter_arcs g) a (Array.length a)

let of_nonsink_order_exn g nonsinks =
  get_exn "Schedule.of_nonsink_order_exn" (of_nonsink_order g nonsinks)

let is_valid g a = Result.is_ok (of_dag g a)

let natural g = Dag.topological_order g

let nonsink_prefix g s =
  Array.to_list s |> List.filter (fun v -> not (Dag.is_sink g v))

let prefix_set s t =
  let marked = Array.make (Array.length s) false in
  for i = 0 to t - 1 do
    marked.(s.(i)) <- true
  done;
  marked

let nonsinks_first g s =
  let seen_sink = ref false and ok = ref true in
  Array.iter
    (fun v ->
      if Dag.is_sink g v then seen_sink := true else if !seen_sink then ok := false)
    s;
  !ok

let pp g ppf s =
  Format.fprintf ppf "@[<hov 2>[";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.pp_print_string ppf (Dag.label g v))
    s;
  Format.fprintf ppf "]@]"
