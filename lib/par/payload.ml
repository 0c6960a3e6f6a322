module Dag = Ic_dag.Dag
module Slab = Ic_dag.Slab
module Schedule = Ic_dag.Schedule
module Engine = Ic_compute.Engine

type t = {
  name : string;
  dag : Dag.t;
  rank : int array;
  exec : Engine.executor option -> float array;
  validate : float array -> bool;
}

let name t = t.name
let dag t = t.dag
let rank t = t.rank
let execute ?executor t = t.exec executor
let check t fp = t.validate fp

(* ---- calibrated busy-work -------------------------------------------- *)

(* a serial float recurrence the compiler cannot vectorize away *)
let kernel iters =
  let x = ref 1.0 in
  for i = 1 to iters do
    x := !x +. (1.0 /. ((!x *. 0.5) +. float_of_int i))
  done;
  ignore (Sys.opaque_identity !x)

(* iterations per microsecond; calibrated once, from the constructing
   domain, before any worker can call [spin] *)
let iters_per_us = ref 0.0

let calibrate () =
  if !iters_per_us = 0.0 then begin
    let time iters =
      let t0 = Ic_prof.Monotonic.now () in
      kernel iters;
      Ic_prof.Monotonic.now () -. t0
    in
    let iters = ref 4096 in
    let dt = ref (time !iters) in
    while !dt < 2e-3 && !iters < 1 lsl 26 do
      iters := !iters * 4;
      dt := time !iters
    done;
    (* a preemption only ever slows a timed run, so the fastest of three
       runs at the final count is the rate: one slow run no longer makes
       every later spin short *)
    let best = Float.min !dt (Float.min (time !iters) (time !iters)) in
    iters_per_us := Float.max 1.0 (float_of_int !iters /. (best *. 1e6))
  end

let spin us =
  if us > 0.0 then kernel (max 1 (int_of_float (us *. !iters_per_us)))

(* wrap an engine's compute with the spin; the spin touches no shared
   state, so the wrapped compute stays safe to call from any domain *)
let with_spin spin_us (e : 'a Engine.t) =
  if spin_us <= 0.0 then e
  else begin
    calibrate ();
    {
      e with
      Engine.compute =
        (fun v parents ->
          spin spin_us;
          e.Engine.compute v parents);
    }
  end

let rank_of_schedule s =
  let order = Schedule.order s in
  let rank = Array.make (Array.length order) 0 in
  (* order.(i) = v means v runs at step i, so v's rank is i *)
  Array.iteri (fun i v -> rank.(v) <- i) order;
  rank

let run_engine ?executor e ~fingerprint =
  fingerprint (Engine.execute ?executor e)

(* a family's size bound, checked before anything is allocated *)
let too_large family size what =
  invalid_arg (Printf.sprintf "Payload.%s: size %d %s" family size what)

let too_many_nodes family size =
  too_large family size
    (Printf.sprintf "needs more than %d nodes" Dag.max_nodes)

(* ---- wavefront: edit distance on the (size+1)² grid ------------------ *)

let synth_string seed len =
  String.init len (fun i -> Char.chr (97 + ((i * (i + seed) * 7) + seed) mod 26))

let wavefront ?(spin_us = 0.0) ~size () =
  if size < 1 then invalid_arg "Payload.wavefront: size must be >= 1";
  if size >= Dag.max_nodes || (size + 1) * (size + 1) > Dag.max_nodes then
    too_many_nodes "wavefront" size;
  let s = synth_string 3 size and tt = synth_string 11 size in
  let e = with_spin spin_us (Ic_compute.Wavefront.edit_distance_engine s tt) in
  let g = e.Engine.dag in
  {
    name = Printf.sprintf "wavefront-%d" size;
    dag = g;
    rank =
      rank_of_schedule
        (Ic_compute.Wavefront.grid_schedule ~rows:size ~cols:size);
    exec =
      (fun executor ->
        run_engine ?executor e ~fingerprint:(Array.map float_of_int));
    validate =
      (fun fp ->
        (* the last cell holds the distance *)
        fp.(Dag.n_nodes g - 1)
        = float_of_int (Ic_compute.Wavefront.edit_distance_reference s tt));
  }

(* ---- fft: the 2^size-point DFT on B_size ----------------------------- *)

let fft ?(spin_us = 0.0) ~size () =
  if size < 1 then invalid_arg "Payload.fft: size must be >= 1";
  if size > 30 || (size + 1) lsl size > Dag.max_nodes then
    too_many_nodes "fft" size;
  if (2 * size) lsl size > Slab.max_value then
    too_large "fft" size
      (Printf.sprintf "needs more than %d arcs" Slab.max_value);
  let d = size in
  let n = 1 lsl d in
  (* the engine builds the dag before the inputs are boxed: a dag too big
     for memory then fails in its own allocation with [Out_of_memory],
     where 2^d boxed inputs made first can exhaust the heap inside a
     minor collection, which aborts the process. The engine reads
     [input] only when it computes, so it is filled in place after. *)
  let input = Array.make n Complex.zero in
  let e = with_spin spin_us (Ic_compute.Fft.engine input) in
  for i = 0 to n - 1 do
    let x = float_of_int i in
    input.(i) <- { Complex.re = cos (0.7 *. x); im = sin (0.3 *. x) }
  done;
  let g = e.Engine.dag in
  let fingerprint values =
    Array.init (2 * Array.length values) (fun i ->
        let c = values.(i / 2) in
        if i land 1 = 0 then c.Complex.re else c.Complex.im)
  in
  {
    name = Printf.sprintf "fft-%d" d;
    dag = g;
    rank = rank_of_schedule (Ic_families.Butterfly_net.schedule d);
    exec = (fun executor -> run_engine ?executor e ~fingerprint);
    validate =
      (fun fp ->
        (* every output against a sequential radix-2 FFT, and a fixed
           sample of 16 against the DFT's definition at O(n) each: the
           whole naive DFT is O(n^2), past 300 s at size 19. The FFT runs
           in place over n values; [Fft.fft] would rebuild B_d and box
           every level's values, which doubled the peak memory of a
           checked run. *)
        let close r (z : Complex.t) =
          let v = Ic_families.Butterfly_net.node ~d d r in
          let dre = fp.(2 * v) -. z.re and dim = fp.((2 * v) + 1) -. z.im in
          sqrt ((dre *. dre) +. (dim *. dim)) <= 1e-6 *. float_of_int n
        in
        let twiddle j len =
          Complex.polar 1.0
            (-2.0 *. Float.pi *. float_of_int j /. float_of_int len)
        in
        let sequential =
          let a =
            Array.init n (fun r ->
                input.(Ic_compute.Fft.bit_reverse ~bits:d r))
          in
          let len = ref 2 in
          while !len <= n do
            let half = !len / 2 in
            for block = 0 to (n / !len) - 1 do
              for j = 0 to half - 1 do
                let lo = (block * !len) + j in
                let x0 = a.(lo) in
                let x1 = Complex.mul (twiddle j !len) a.(lo + half) in
                a.(lo) <- Complex.add x0 x1;
                a.(lo + half) <- Complex.sub x0 x1
              done
            done;
            len := 2 * !len
          done;
          a
        in
        let dft_at k =
          let acc = ref Complex.zero in
          for i = 0 to n - 1 do
            let w = twiddle (i * k mod n) n in
            acc := Complex.add !acc (Complex.mul input.(i) w)
          done;
          !acc
        in
        let rec all r = r >= n || (close r sequential.(r) && all (r + 1)) in
        all 0
        && List.for_all
             (fun k -> close k (dft_at k))
             (List.init (min n 16) (fun j -> ((j * n / 16) + j) mod n)));
  }

(* ---- matmul: one level of M over 2^size float blocks ----------------- *)

let synth_mat seed n =
  Array.init n (fun i ->
      Array.init n (fun j ->
          let x = float_of_int (((i * 31) + (j * 17) + seed) mod 101) in
          (x /. 50.0) -. 1.0))

let matmul ?(spin_us = 0.0) ~size () =
  if size < 1 then invalid_arg "Payload.matmul: size must be >= 1";
  (* the fingerprint holds 20 blocks of 2^(size-1) x 2^(size-1) floats *)
  if size > 26 || 20 lsl (2 * (size - 1)) > Sys.max_floatarray_length then
    too_large "matmul" size
      "makes matrices with more elements than a float array holds";
  let nm = 1 lsl size in
  let a = synth_mat 5 nm and b = synth_mat 23 nm in
  let half = nm / 2 in
  let e = with_spin spin_us (Ic_compute.Matmul.engine ~threshold:half a b) in
  let g = e.Engine.dag in
  (* every node's block, node-major, row-major within a block *)
  let fingerprint values =
    Array.concat (List.concat_map Array.to_list (Array.to_list values))
  in
  let blocks fp =
    Array.init (Dag.n_nodes g) (fun v ->
        Array.init half (fun i -> Array.sub fp (((v * half) + i) * half) half))
  in
  {
    name = Printf.sprintf "matmul-%d" nm;
    dag = g;
    rank = rank_of_schedule (Ic_families.Matmul_dag.schedule ());
    exec = (fun executor -> run_engine ?executor e ~fingerprint);
    validate =
      (fun fp ->
        Ic_compute.Matmul.approx_equal
          (Ic_compute.Matmul.product (blocks fp))
          (Ic_compute.Matmul.naive a b));
  }

(* ---- quadrature: midpoint rule reduced through the binary in-tree ---- *)

let quadrature ?(spin_us = 0.0) ~size () =
  if size < 1 then invalid_arg "Payload.quadrature: size must be >= 1";
  let depth = size in
  let g = Ic_families.In_tree.dag ~arity:2 ~depth in
  let n = Dag.n_nodes g in
  let leaves = 1 lsl depth in
  let h = 1.0 /. float_of_int leaves in
  (* leaf index = position among the sources in ascending node order *)
  let leaf_index = Array.make n (-1) in
  let next = ref 0 in
  Ic_dag.Frontier.fill_remaining g (fun v d ->
      if d = 0 then begin
        leaf_index.(v) <- !next;
        incr next
      end);
  assert (!next = leaves);
  let f x = 4.0 /. (1.0 +. (x *. x)) in
  let compute v parents =
    if Array.length parents = 0 then
      let mid = (float_of_int leaf_index.(v) +. 0.5) *. h in
      h *. f mid
    else Array.fold_left ( +. ) 0.0 parents
  in
  let e = with_spin spin_us { Engine.dag = g; compute } in
  let fingerprint values = Array.copy values in
  (* the sink is the unique node with no successors *)
  let soff = Dag.succ_offsets g in
  let sink = ref 0 in
  for v = 0 to n - 1 do
    if Slab.get soff (v + 1) = Slab.get soff v then sink := v
  done;
  let sink = !sink in
  {
    name = Printf.sprintf "quadrature-%d" depth;
    dag = g;
    rank = rank_of_schedule (Ic_families.In_tree.schedule g);
    exec = (fun executor -> run_engine ?executor e ~fingerprint);
    validate =
      (fun fp ->
        (* composite midpoint error <= (b-a) h² max|f''| / 24 <= h²/3 *)
        Float.abs (fp.(sink) -. Float.pi) <= h *. h);
  }

let families = [ "wavefront"; "fft"; "matmul"; "quadrature" ]

let make ?spin_us ~family ~size () =
  match family with
  | "wavefront" -> wavefront ?spin_us ~size ()
  | "fft" -> fft ?spin_us ~size ()
  | "matmul" -> matmul ?spin_us ~size ()
  | "quadrature" -> quadrature ?spin_us ~size ()
  | _ -> invalid_arg ("Payload.make: unknown family " ^ family)
