(* Domain-safe instruments. Producers count in their own state and
   either attach a reader or add a run's totals once, when it ends, so
   a counter is written a few times per run: one atomic cell is all it
   needs. Histograms are the one instrument written per event. The read
   side (scrape endpoint, dump at exit) sums a counter's cell and
   readers and renders histogram buckets.

   Registration is guarded by a mutex that only protects the name
   table — instruments themselves are immutable records over Atomic
   cells. *)

type counter = {
  cell : int Atomic.t;
  (* counts kept by their producers, summed with the cell on read *)
  c_readers : (unit -> int) list Atomic.t;
}

(* last write wins, whether a value from [set] or a reader *)
type gauge = (unit -> float) Atomic.t

(* two buckets per octave over 2^-20 .. 2^12: index 2*(e - lo_e) + (0 if
   mantissa < 0.75 else 1), saturating at both ends *)
let lo_e = -20
let n_buckets = 64

type histogram = {
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  (* fixed-point at nanosecond resolution: an atomic add instead of a
     CAS loop over boxed floats; saturates after ~292 host-years *)
  h_sum_ns : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram

type t = {
  lock : Mutex.t;
  tbl : (string, instrument) Hashtbl.t;
  created_at : float;
}

let create () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 32;
    created_at = Unix.gettimeofday ();
  }

let with_lock t f = Mutex.protect t.lock f

let register t name make_i describe ~kind =
  let i =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.tbl name with
        | Some i -> i
        | None ->
          let i = make_i () in
          Hashtbl.replace t.tbl name i;
          i)
  in
  match describe i with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Live.%s: %s is registered as another instrument kind"
         kind name)

let counter t name =
  register t name ~kind:"counter"
    (fun () -> C { cell = Atomic.make 0; c_readers = Atomic.make [] })
    (function C c -> Some c | _ -> None)

let zero () = 0.0

let gauge t name =
  register t name ~kind:"gauge"
    (fun () -> G (Atomic.make zero))
    (function G g -> Some g | _ -> None)

(* the lock orders readers attached from different threads; a read only
   takes the list *)
let counter_reader t name f =
  let c = counter t name in
  with_lock t (fun () -> Atomic.set c.c_readers (f :: Atomic.get c.c_readers))

let gauge_reader t name f = Atomic.set (gauge t name) f

let histogram t name =
  register t name ~kind:"histogram"
    (fun () ->
      H
        {
          h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum_ns = Atomic.make 0;
        })
    (function H h -> Some h | _ -> None)

(* ----------------------------------------------------------- hot path *)

let incr c n = ignore (Atomic.fetch_and_add c.cell n)

let set g v = Atomic.set g (fun () -> v)

let bucket_of x =
  if not (Float.is_finite x) || x <= 0.0 then 0
  else begin
    let m, e = Float.frexp x in
    let i = (2 * (e - lo_e)) + if m < 0.75 then 0 else 1 in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
  end

let observe h x =
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of x) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  if Float.is_finite x && x > 0.0 then begin
    let ns = int_of_float (x *. 1e9) in
    ignore (Atomic.fetch_and_add h.h_sum_ns ns)
  end

(* ------------------------------------------------------ merge-on-read *)

let counter_value c =
  List.fold_left
    (fun s f -> s + f ())
    (Atomic.get c.cell) (Atomic.get c.c_readers)

let gauge_value g = (Atomic.get g) ()

type hsnap = { counts : int array; sum : float; count : int }

let histogram_snapshot h =
  {
    counts = Array.init n_buckets (fun i -> Atomic.get h.h_buckets.(i));
    sum = float_of_int (Atomic.get h.h_sum_ns) /. 1e9;
    count = Atomic.get h.h_count;
  }

let bucket_upper i =
  let base = Float.ldexp 1.0 (lo_e + (i / 2)) in
  if i land 1 = 0 then 0.75 *. base else base

(* ---------------------------------------------------------- rendering *)

let sorted_instruments t =
  with_lock t (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ch
      | _ -> '_')
    name

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

(* JSON has no NaN or infinity; a non-finite gauge renders null *)
let json_float x = if Float.is_finite x then fmt_float x else "null"

let rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line >= 6 && String.sub line 0 6 = "VmRSS:" then begin
              let kb = ref 0 in
              String.iter
                (fun ch ->
                  if ch >= '0' && ch <= '9' then
                    kb := (!kb * 10) + (Char.code ch - Char.code '0'))
                line;
              !kb * 1024
            end
            else scan ()
        in
        scan ())

let add_histogram_exposition buf name h =
  let s = histogram_snapshot h in
  Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
  let cum = ref 0 in
  for i = 0 to n_buckets - 1 do
    cum := !cum + s.counts.(i);
    (* cumulative semantics survive skipping empty buckets; render only
       the occupied ones plus +Inf to keep the exposition small *)
    if s.counts.(i) > 0 && i < n_buckets - 1 then
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
           (fmt_float (bucket_upper i))
           !cum)
  done;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name s.count);
  Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (fmt_float s.sum));
  Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name s.count)

let openmetrics ?(process = true) t =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (name, i) ->
      let name = sanitize name in
      match i with
      | C c ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
        Buffer.add_string buf
          (Printf.sprintf "%s_total %d\n" name (counter_value c))
      | G g ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" name (fmt_float (gauge_value g)))
      | H h -> add_histogram_exposition buf name h)
    (sorted_instruments t);
  if process then begin
    let gc = Gc.quick_stat () in
    Buffer.add_string buf "# TYPE process_resident_memory_bytes gauge\n";
    Buffer.add_string buf
      (Printf.sprintf "process_resident_memory_bytes %d\n" (rss_bytes ()));
    Buffer.add_string buf "# TYPE process_uptime_seconds gauge\n";
    Buffer.add_string buf
      (Printf.sprintf "process_uptime_seconds %s\n"
         (fmt_float (Unix.gettimeofday () -. t.created_at)));
    Buffer.add_string buf "# TYPE ocaml_gc_minor_collections counter\n";
    Buffer.add_string buf
      (Printf.sprintf "ocaml_gc_minor_collections_total %d\n" gc.Gc.minor_collections);
    Buffer.add_string buf "# TYPE ocaml_gc_major_collections counter\n";
    Buffer.add_string buf
      (Printf.sprintf "ocaml_gc_major_collections_total %d\n" gc.Gc.major_collections);
    Buffer.add_string buf "# TYPE ocaml_gc_heap_words gauge\n";
    Buffer.add_string buf
      (Printf.sprintf "ocaml_gc_heap_words %d\n" gc.Gc.heap_words)
  end;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let to_json t =
  let instruments = sorted_instruments t in
  let buf = Buffer.create 2048 in
  let section tag filter render =
    Buffer.add_string buf (Printf.sprintf "%s: {" (Json.quote tag));
    let first = ref true in
    List.iter
      (fun (name, i) ->
        match filter i with
        | None -> ()
        | Some v ->
          if not !first then Buffer.add_string buf ", ";
          first := false;
          Buffer.add_string buf (Json.quote name);
          Buffer.add_string buf ": ";
          render v)
      instruments;
    Buffer.add_string buf "}"
  in
  Buffer.add_string buf "{";
  section "counters"
    (function C c -> Some (counter_value c) | _ -> None)
    (fun v -> Buffer.add_string buf (string_of_int v));
  Buffer.add_string buf ", ";
  section "gauges"
    (function G g -> Some (gauge_value g) | _ -> None)
    (fun v -> Buffer.add_string buf (json_float v));
  Buffer.add_string buf ", ";
  section "histograms"
    (function H h -> Some (histogram_snapshot h) | _ -> None)
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "{\"count\": %d, \"sum\": %s, \"buckets\": [" s.count
           (fmt_float s.sum));
      let first = ref true in
      let cum = ref 0 in
      for i = 0 to n_buckets - 1 do
        cum := !cum + s.counts.(i);
        if s.counts.(i) > 0 then begin
          if not !first then Buffer.add_string buf ", ";
          first := false;
          Buffer.add_string buf
            (Printf.sprintf "[%s, %d]" (fmt_float (bucket_upper i)) !cum)
        end
      done;
      Buffer.add_string buf "]}");
  Buffer.add_string buf "}";
  Buffer.contents buf
