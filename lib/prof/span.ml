(* Wall-clock spans as events of one in-memory [Ic_obs.Trace]. [enter]
   emits [Span_enter] (a = the interned name id, b = the number of spans
   open around it) and pushes its [Gc.quick_stat] sample; [leave] pops
   the sample and emits [Span_leave] (a = minor words, b = direct major
   words allocated since). Both carry [Monotonic.now] seconds, and
   [capture] folds the tree from the events by call path.

   The disabled path is one load-and-branch per call, with no
   allocation: call sites pass static strings, and nothing else runs. The
   enabled path pays one [Monotonic.now], one [Gc.quick_stat] and one
   [Trace.emit] per [enter] and per [leave]; [Gc.quick_stat] allocates
   its result record (a few dozen words), a small per-span floor in the
   allocation deltas of enclosing spans — an observer effect to keep in
   mind when reading words-allocated numbers of nanosecond-scale spans.
   Counts are always exact. *)

module Trace = Ic_obs.Trace

let on = ref false
let trace = Trace.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 64

(* the open spans' start samples, innermost first; empty while profiling
   is off *)
let starts : Gc.stat list ref = ref []

let enabled () = !on
let enable () = on := true

(* spans still open are forgotten: the fold drops their last interval,
   and the next [enter] opens at the top level *)
let disable () =
  on := false;
  starts := []

let reset () =
  Trace.clear trace;
  starts := []

let intern name =
  match Hashtbl.find ids name with
  | id -> id
  | exception Not_found ->
    let id = Hashtbl.length ids in
    Hashtbl.add ids name id;
    id

let enter name =
  if !on then begin
    let id = intern name in
    let st = Gc.quick_stat () in
    Trace.emit trace Span_enter ~time:(Monotonic.now ()) ~a:id
      ~b:(List.length !starts);
    starts := st :: !starts
  end

let direct_major (st : Gc.stat) = st.major_words -. st.promoted_words

(* an unbalanced leave at the top level is ignored *)
let leave () =
  match !starts with
  | st0 :: around ->
    let t1 = Monotonic.now () in
    let st = Gc.quick_stat () in
    starts := around;
    Trace.emit trace Span_leave ~time:t1
      ~a:(int_of_float (st.minor_words -. st0.minor_words))
      ~b:(int_of_float (direct_major st -. direct_major st0))
  | _ -> ()

let time name f =
  if !on then begin
    enter name;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end
  else f ()

type info = {
  info_name : string;
  info_count : int;
  total_s : float;
  minor_words : float;
  major_words : float;
  info_children : info list;
}

let capture () =
  let name = Array.make (Hashtbl.length ids) "" in
  Hashtbl.iter (fun s id -> name.(id) <- s) ids;
  (* (count, seconds, minor, major) by call path, name ids innermost
     first; the open spans are (path, start time), innermost first *)
  let paths = Hashtbl.create 64 and stack = ref [] in
  let add path f =
    let zero = (0, 0.0, 0.0, 0.0) in
    Hashtbl.replace paths path
      (f (Option.value (Hashtbl.find_opt paths path) ~default:zero))
  in
  Trace.iter
    (fun (e : Trace.event) ->
      match (e.kind, !stack) with
      | Span_enter, spans ->
        (* keep the [e.b] outermost: the others were open at a [disable] *)
        let k = List.length spans - e.b in
        let around = List.filteri (fun i _ -> i >= k) spans in
        let path = e.a :: (match around with (p, _) :: _ -> p | [] -> []) in
        add path (fun (c, s, mi, ma) -> (c + 1, s, mi, ma));
        stack := (path, e.time) :: around
      | Span_leave, (path, t0) :: around ->
        add path (fun (c, s, mi, ma) ->
            (c, s +. (e.time -. t0), mi +. float e.a, ma +. float e.b));
        stack := around
      | _ -> ())
    trace;
  let rec level up =
    Hashtbl.fold
      (fun path (count, total, minor, major) acc ->
        match path with
        | id :: p when p = up ->
          {
            info_name = name.(id);
            info_count = count;
            total_s = total;
            minor_words = minor;
            major_words = major;
            info_children = level path;
          }
          :: acc
        | _ -> acc)
      paths []
    |> List.sort (fun a b -> compare a.info_name b.info_name)
  in
  level []
