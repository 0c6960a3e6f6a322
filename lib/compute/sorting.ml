module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule

let n_substages d = d * (d + 1) / 2

(* substage list for 2^d keys: (block_size, stride) pairs in network order *)
let substages d =
  List.concat
    (List.init d (fun pk ->
         let k = 1 lsl (pk + 1) in
         List.init (pk + 1) (fun i -> (k, 1 lsl (pk - i)))))

(* 2^31 keys alone pass the bound; below that nothing overflows *)
let check_size d =
  if d < 1 then invalid_arg "Sorting.network_dag: need d >= 1";
  if d > 30 || (n_substages d + 1) lsl d > Dag.max_nodes then
    invalid_arg
      (Printf.sprintf
         "Sorting.network_dag: a network on 2^%d keys needs more than %d nodes"
         d Dag.max_nodes)

let network_dag d =
  check_size d;
  let n = 1 lsl d in
  let b =
    Dag.Builder.create
      ~n:((n_substages d + 1) * n)
      ~hint:(2 * n_substages d * n)
      ()
  in
  List.iteri
    (fun t (_k, j) ->
      for r = 0 to n - 1 do
        Dag.Builder.add_arc b ((t * n) + r) (((t + 1) * n) + r);
        Dag.Builder.add_arc b ((t * n) + r) (((t + 1) * n) + (r lxor j))
      done)
    (substages d);
  Dag.Builder.build_exn b

let schedule d =
  check_size d;
  let n = 1 lsl d in
  let order = ref [] in
  List.iteri
    (fun t (_k, j) ->
      for r = 0 to n - 1 do
        if r land j = 0 then
          order := ((t * n) + (r lor j)) :: ((t * n) + r) :: !order
      done)
    (substages d);
  Schedule.of_nonsink_order_exn (network_dag d) (List.rev !order)

let sort_generic : type a. ?schedule:Schedule.t -> (a -> a -> int) -> a array -> a array =
 fun ?schedule:sched cmp keys ->
  let n = Array.length keys in
  let d =
    let rec go p m =
      if m = 1 then p
      else if m land 1 = 1 then invalid_arg "Sorting.sort: length must be 2^d"
      else go (p + 1) (m / 2)
    in
    if n < 2 then invalid_arg "Sorting.sort: length must be 2^d, d >= 1"
    else go 0 n
  in
  let stages = Array.of_list (substages d) in
  let g = network_dag d in
  let compute v parents =
    let t = v / n and r = v mod n in
    if t = 0 then keys.(r)
    else begin
      let k, j = stages.(t - 1) in
      let low = r land lnot j in
      (* ascending blocks have the k-bit of the row clear (Batcher) *)
      let ascending = low land k = 0 in
      let u = parents.(0) and w = parents.(1) in
      (* parents.(0) is the low row (bit j clear), parents.(1) the high *)
      let small, large = if cmp u w <= 0 then (u, w) else (w, u) in
      if r land j = 0 then if ascending then small else large
      else if ascending then large
      else small
    end
  in
  let values = Engine.execute ?schedule:sched { Engine.dag = g; compute } in
  let top = n_substages d * n in
  Array.init n (fun r -> values.(top + r))

(* Batcher's odd-even merge sort: the classic iterative formulation; each
   substage is a partial matching of compare-exchanges *)
let oddeven_substages d =
  if d < 1 then invalid_arg "Sorting.oddeven_substages: need d >= 1";
  let n = 1 lsl d in
  let stages = ref [] in
  let p = ref 1 in
  while !p < n do
    let k = ref !p in
    while !k >= 1 do
      let pairs = ref [] in
      let j = ref (!k mod !p) in
      while !j <= n - 1 - !k do
        for i = 0 to min (!k - 1) (n - !j - !k - 1) do
          if (i + !j) / (2 * !p) = (i + !j + !k) / (2 * !p) then
            pairs := (i + !j, i + !j + !k) :: !pairs
        done;
        j := !j + (2 * !k)
      done;
      stages := List.rev !pairs :: !stages;
      k := !k / 2
    done;
    p := !p * 2
  done;
  List.rev !stages

let oddeven_dag d =
  let n = 1 lsl d in
  let stages = oddeven_substages d in
  let arcs = ref [] in
  List.iteri
    (fun t pairs ->
      let paired = Array.make n false in
      List.iter
        (fun (a, b) ->
          paired.(a) <- true;
          paired.(b) <- true;
          arcs :=
            ((t * n) + a, ((t + 1) * n) + a)
            :: ((t * n) + a, ((t + 1) * n) + b)
            :: ((t * n) + b, ((t + 1) * n) + a)
            :: ((t * n) + b, ((t + 1) * n) + b)
            :: !arcs)
        pairs;
      for r = 0 to n - 1 do
        if not paired.(r) then arcs := ((t * n) + r, ((t + 1) * n) + r) :: !arcs
      done)
    stages;
  Dag.make_exn ~n:((List.length stages + 1) * n) ~arcs:!arcs ()

let oddeven_schedule d =
  let n = 1 lsl d in
  let stages = oddeven_substages d in
  let order = ref [] in
  List.iteri
    (fun t pairs ->
      let paired = Array.make n false in
      List.iter
        (fun (a, b) ->
          paired.(a) <- true;
          paired.(b) <- true;
          order := ((t * n) + b) :: ((t * n) + a) :: !order)
        pairs;
      for r = n - 1 downto 0 do
        if not paired.(r) then order := ((t * n) + r) :: !order
      done)
    stages;
  Schedule.of_nonsink_order_exn (oddeven_dag d) (List.rev !order)

let sort_oddeven keys =
  let n = Array.length keys in
  let d =
    let rec go p m =
      if m = 1 then p
      else if m land 1 = 1 then invalid_arg "Sorting.sort_oddeven: length must be 2^d"
      else go (p + 1) (m / 2)
    in
    if n < 2 then invalid_arg "Sorting.sort_oddeven: length must be 2^d, d >= 1"
    else go 0 n
  in
  let stages = Array.of_list (List.map Array.of_list (oddeven_substages d)) in
  let g = oddeven_dag d in
  let compute v parents =
    let t = v / n and r = v mod n in
    if t = 0 then keys.(r)
    else begin
      match
        Array.find_opt (fun (a, b) -> a = r || b = r) stages.(t - 1)
      with
      | None -> parents.(0) (* pass-through *)
      | Some (a, _b) ->
        let u = parents.(0) and w = parents.(1) in
        (* parents ascending: row a then row b; a < b always *)
        if r = a then min u w else max u w
    end
  in
  let values =
    Engine.execute ~schedule:(oddeven_schedule d) { Engine.dag = g; compute }
  in
  let top = Array.length stages * n in
  Array.init n (fun r -> values.(top + r))

let n_comparators d =
  let bitonic =
    List.fold_left (fun acc (_k, _j) -> acc + (1 lsl (d - 1))) 0 (substages d)
  in
  let oddeven =
    List.fold_left (fun acc pairs -> acc + List.length pairs) 0 (oddeven_substages d)
  in
  (bitonic, oddeven)

let default_schedule n =
  let rec log2 p m = if m <= 1 then p else log2 (p + 1) (m / 2) in
  if n >= 2 && n land (n - 1) = 0 then schedule (log2 0 n)
  else invalid_arg "Sorting.sort: length must be 2^d, d >= 1"

let sort ?schedule keys =
  let schedule =
    match schedule with
    | Some s -> s
    | None -> default_schedule (Array.length keys)
  in
  sort_generic ~schedule compare keys

let sort_floats keys =
  sort_generic ~schedule:(default_schedule (Array.length keys)) compare keys
