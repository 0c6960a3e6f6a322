module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Policy = Ic_heuristics.Policy
module Heap = Ic_heuristics.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- heap --- *)

(* the swap-based polymorphic heap that [Heap] replaced, kept as the
   reference for tie order: seeded virtual runs depend on equal keys
   popping in the order this heap gives them *)
module Swap_heap = struct
  type ('k, 'v) t = {
    mutable data : ('k * 'v) array;
    mutable size : int;
  }

  let create () = { data = [||]; size = 0 }
  let is_empty h = h.size = 0

  let grow h entry =
    let cap = Array.length h.data in
    if h.size = cap then begin
      let data = Array.make (max 8 (2 * cap)) entry in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if fst h.data.(i) < fst h.data.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
    if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h k v =
    grow h (k, v);
    h.data.(h.size) <- (k, v);
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      sift_down h 0;
      Some top
    end
end

let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let k = Heap.min_key h in
      let v = Heap.pop_min h in
      go ((k, v) :: acc)
    end
  in
  go []

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun k -> Heap.push h k (int_of_float k))
    [ 5.; 1.; 4.; 1.; 3.; 9.; 2. ];
  check_int "size" 7 (Heap.size h);
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.; 1.; 2.; 3.; 4.; 5.; 9. ] (List.map fst (drain h));
  check "empty after drain" true (Heap.is_empty h)

let test_heap_peek () =
  let h = Heap.create () in
  check "min_key of empty is infinity" true (Heap.min_key h = infinity);
  (match Heap.pop_min h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pop_min of an empty heap returned");
  Heap.push h 2.0 "b";
  Heap.push h 1.0 "a";
  check "min_key" true (Heap.min_key h = 1.0);
  check_int "min_key does not remove" 2 (Heap.size h);
  Alcotest.(check string) "pop_min returns the min's value" "a" (Heap.pop_min h)

let test_heap_float_keys () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (string_of_float k)) [ 3.5; 0.1; 2.2 ];
  check "float min" true
    (drain h = [ (0.1, "0.1"); (2.2, "2.2"); (3.5, "3.5") ])

(* keys come from 3-4 distinct values, so most pops choose among ties;
   values are the push index, so any difference in tie order shows *)
let prop_heap_tie_order =
  QCheck2.Test.make ~name:"float heap pops ties in the swap heap's order"
    ~count:500
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(
      pair (int_range 3 4) (list_size (int_range 0 300) (int_bound 5)))
    (fun (distinct, ops) ->
      let keys = [| 0.25; 1.0; 1.5; 7.0 |] in
      let h = Heap.create () and r = Swap_heap.create () in
      let ok = ref true in
      let pop () =
        match Swap_heap.pop r with
        | None -> ok := !ok && Heap.is_empty h
        | Some (k, v) -> ok := !ok && Heap.min_key h = k && Heap.pop_min h = v
      in
      (* ops 0-1 pop, 2-5 push, so the heaps fill while they churn *)
      List.iteri
        (fun i op ->
          if op < 2 then pop ()
          else begin
            let k = keys.(op mod distinct) in
            Heap.push h k i;
            Swap_heap.push r k i
          end)
        ops;
      while not (Swap_heap.is_empty r) do
        pop ()
      done;
      !ok && Heap.is_empty h)

(* [append] against a sorted-list model. The model keeps every live
   entry as (key, lane?, index) and tracks which appends the lane takes
   (the lane is empty or the key is at least its last key), so the test
   sees both the O(1) appends and the out-of-order ones that fall back to
   [push]. A pop must return the smallest key; among equal keys a heap
   entry before any lane entry, and the lane entries in append order.
   Heap entries with equal keys may come in any order here: their order
   is [prop_heap_tie_order]'s subject. *)
let prop_heap_append_model =
  QCheck2.Test.make ~name:"append + push + pop_min match a sorted-list model"
    ~count:500
    ~print:QCheck2.Print.(list (pair int int))
    QCheck2.Gen.(list_size (int_range 0 300) (pair (int_bound 5) (int_bound 3)))
    (fun ops ->
      let keys = [| 0.25; 1.0; 1.5; 7.0 |] in
      let h = Heap.create () in
      (* live entries, sorted by key, then heap before lane, then index *)
      let model = ref [] in
      let lane_last = ref None in
      let lane_live = ref 0 in
      let ok = ref true in
      let insert k lane i =
        let before (k', lane', i') =
          k' < k
          || (k' = k && ((lane' = lane && i' < i) || (lane && not lane')))
        in
        let rec go = function
          | e :: rest when before e -> e :: go rest
          | l -> (k, lane, i) :: l
        in
        model := go !model
      in
      let pop () =
        match !model with
        | [] -> ok := !ok && Heap.is_empty h && Heap.min_key h = infinity
        | (k, _, _) :: _ ->
          let got_k = Heap.min_key h in
          let v = Heap.pop_min h in
          (* any heap entry of the smallest key; a lane entry only from
             the head of the model, past every heap entry of its key *)
          let rec take first = function
            | [] -> None
            | ((k', lane, i) as e) :: rest ->
              if k' <> k || (lane && not first && i = v) then None
              else if i = v then Some (lane, rest)
              else Option.map (fun (l, r) -> (l, e :: r)) (take false rest)
          in
          (match take true !model with
          | None -> ok := false
          | Some (lane, rest) ->
            ok := !ok && got_k = k;
            model := rest;
            if lane then begin
              decr lane_live;
              if !lane_live = 0 then lane_last := None
            end)
      in
      (* op 0-1 pops, 2-3 pushes, 4-5 appends *)
      List.iteri
        (fun i (op, ki) ->
          let k = keys.(ki) in
          if op < 2 then pop ()
          else if op < 4 then begin
            Heap.push h k i;
            insert k false i
          end
          else begin
            Heap.append h k i;
            let lane = match !lane_last with None -> true | Some l -> k >= l in
            insert k lane i;
            if lane then begin
              lane_last := Some k;
              incr lane_live
            end
          end;
          ok := !ok && Heap.size h = List.length !model)
        ops;
      while !model <> [] do
        pop ()
      done;
      !ok && Heap.is_empty h)

let test_heap_append_lane () =
  let h = Heap.create () in
  (* in-order appends across several ring growths, interleaved with pops
     so the ring wraps *)
  let next = ref 0 and popped = ref [] in
  for round = 0 to 19 do
    for _ = 0 to 9 + round do
      Heap.append h (float_of_int !next) !next;
      incr next
    done;
    for _ = 0 to 7 do
      popped := Heap.pop_min h :: !popped
    done
  done;
  while not (Heap.is_empty h) do
    popped := Heap.pop_min h :: !popped
  done;
  Alcotest.(check (list int)) "FIFO through wraps and growths"
    (List.init !next Fun.id) (List.rev !popped);
  (* a heap entry beats a lane entry with the same key *)
  Heap.append h 1.0 0;
  Heap.push h 1.0 1;
  Heap.append h 0.5 2 (* out of order: falls back to the heap *);
  check "min_key sees the fallback" true (Heap.min_key h = 0.5);
  Alcotest.(check (list int)) "fallback, then heap before lane on a tie"
    [ 2; 1; 0 ]
    (List.map snd (drain h))

(* --- policies --- *)

let mesh = Ic_families.Mesh.out_mesh 6

let test_policies_produce_schedules () =
  List.iter
    (fun p ->
      let s = Policy.run p mesh in
      if not (Schedule.is_valid mesh (Schedule.order s)) then
        Alcotest.failf "%s produced an invalid schedule" (Policy.name p))
    Policy.baselines

let test_fifo_is_discovery_order () =
  (* on the mesh, FIFO discovers level by level: it equals wavefront order *)
  let fifo = Policy.run Policy.fifo mesh in
  let wavefront = Ic_families.Mesh.out_schedule 6 in
  Alcotest.(check (array int)) "fifo = wavefront on mesh"
    (Schedule.order wavefront) (Schedule.order fifo)

let test_of_schedule_reproduces () =
  let s = Ic_families.Mesh.out_schedule 6 in
  let again = Policy.run (Policy.of_schedule "theory" s) mesh in
  Alcotest.(check (array int)) "same order" (Schedule.order s) (Schedule.order again)

let test_random_deterministic () =
  let a = Policy.run (Policy.random 42) mesh in
  let b = Policy.run (Policy.random 42) mesh in
  let c = Policy.run (Policy.random 43) mesh in
  Alcotest.(check (array int)) "same seed, same order" (Schedule.order a)
    (Schedule.order b);
  check "different seed differs" true (Schedule.order a <> Schedule.order c)

let test_lifo_differs_from_fifo () =
  let f = Policy.run Policy.fifo mesh and l = Policy.run Policy.lifo mesh in
  check "differ" true (Schedule.order f <> Schedule.order l)

let test_critical_path_prefers_deep () =
  (* on a dag with a long chain and a short branch, critical-path starts
     with the chain's head *)
  let g =
    Dag.make_exn ~n:5 ~arcs:[ (0, 2); (2, 3); (3, 4); (1, 4) ] ()
    (* chain 0-2-3-4 plus source 1 *)
  in
  let s = Policy.run Policy.critical_path g in
  check_int "chain head first" 0 (Schedule.order s).(0)

let test_max_out_degree_greedy () =
  let g = Dag.make_exn ~n:5 ~arcs:[ (0, 2); (1, 2); (1, 3); (1, 4) ] () in
  let s = Policy.run Policy.max_out_degree g in
  check_int "fan-out source first" 1 (Schedule.order s).(0)

let test_min_depth_breadth_first () =
  let g = Ic_families.Out_tree.dag ~arity:2 ~depth:3 in
  let s = Policy.run Policy.min_depth g in
  let depth = Dag.depth g in
  let order = Schedule.order s in
  let ok = ref true in
  for i = 0 to Array.length order - 2 do
    if depth.(order.(i)) > depth.(order.(i + 1)) then ok := false
  done;
  check "depth never decreases" true !ok

let test_of_schedule_mismatch () =
  let s = Ic_families.Mesh.out_schedule 3 in
  match Policy.run (Policy.of_schedule "bad" s) mesh with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected size mismatch rejection"

let prop_policies_always_valid =
  QCheck2.Test.make ~name:"all baselines yield valid schedules on random dags"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 30) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.25 in
      List.for_all
        (fun p -> Schedule.is_valid g (Schedule.order (Policy.run p g)))
        Policy.baselines)

let () =
  Alcotest.run "ic_heuristics"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "float keys" `Quick test_heap_float_keys;
          Alcotest.test_case "append lane: FIFO, wraps, ties" `Quick
            test_heap_append_lane;
        ] );
      ( "policies",
        [
          Alcotest.test_case "produce schedules" `Quick test_policies_produce_schedules;
          Alcotest.test_case "fifo = discovery order" `Quick test_fifo_is_discovery_order;
          Alcotest.test_case "of_schedule reproduces" `Quick test_of_schedule_reproduces;
          Alcotest.test_case "random is seeded" `Quick test_random_deterministic;
          Alcotest.test_case "lifo differs" `Quick test_lifo_differs_from_fifo;
          Alcotest.test_case "critical path" `Quick test_critical_path_prefers_deep;
          Alcotest.test_case "max out-degree" `Quick test_max_out_degree_greedy;
          Alcotest.test_case "min depth" `Quick test_min_depth_breadth_first;
          Alcotest.test_case "of_schedule size mismatch" `Quick test_of_schedule_mismatch;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_heap_tie_order; prop_heap_append_model; prop_policies_always_valid ] );
    ]
