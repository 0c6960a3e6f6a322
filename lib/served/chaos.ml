(* A deterministic wire mangler for one direction of a served link.

   Frames pushed through [send] meet the fate their (direction, index)
   coordinates draw from the [Ic_fault.Plan.Wire] plan, then flow
   through a real [Wire.Reader] — the same incremental decoder the TCP
   loops use — so truncation and bit flips exercise the actual
   `Need_more`/`Error` machinery at the byte level, not a simulation of
   it. Byte-level actions (drop, truncate, corrupt, duplicate, reorder)
   decide what enters the reader; time-level actions (the exponential
   extra delay) decide when whatever decoded is delivered.

   A mangled stream can die two ways, and both must heal without wall
   clocks for the virtual harness to stay deterministic:
   - the reader reports [`Error`] (bit flip in a length prefix, payload
     garbage): the link resets its reader — the transport analogue of
     dropping and re-opening a connection;
   - the reader silently desynchronizes (a truncated frame's tail is
     eaten by the next frame's bytes and the advertised length keeps the
     reader waiting): bounded by [stall_limit] consecutive sends that
     decode nothing while bytes are pending, after which the link
     resets. Messages swallowed either way are just extra drops. *)

module Wire_plan = Ic_fault.Plan.Wire

type stats = {
  mutable frames : int;  (* frames offered to this direction *)
  mutable delivered : int;  (* messages decoded and handed on *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable truncated : int;
  mutable corrupted : int;
  mutable reader_errors : int;  (* `Error` results from the reader *)
  mutable resyncs : int;  (* desync resets without a reader error *)
}

let stats_zero () =
  {
    frames = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    truncated = 0;
    corrupted = 0;
    reader_errors = 0;
    resyncs = 0;
  }

(* consecutive message-less sends tolerated while bytes sit undecoded *)
let stall_limit = 3

type t = {
  plan : Wire_plan.t;
  dir : int;
  mutable frame : int;
  mutable reader : Wire.Reader.t;
  mutable held : Bytes.t option;  (* a reordered frame awaiting its successor *)
  mutable stalled : int;
  stats : stats;
  buf : Buffer.t;
}

let create plan ~dir =
  {
    plan;
    dir;
    frame = 0;
    reader = Wire.Reader.create ();
    held = None;
    stalled = 0;
    stats = stats_zero ();
    buf = Buffer.create 256;
  }

let stats t = t.stats

(* what a frame's bytes become on the wire under its action; a reorder
   passes the frame through, holding it is the caller's business *)
let mangle_chunks (d : Wire_plan.decision) b =
  let len = Bytes.length b in
  match d.Wire_plan.action with
  | Wire_plan.Drop -> []
  | Wire_plan.Truncate ->
    let keep = max 1 (min (len - 1) (int_of_float (d.Wire_plan.cut *. float_of_int len))) in
    [ Bytes.sub b 0 keep ]
  | Wire_plan.Corrupt ->
    let b = Bytes.copy b in
    let byte = (d.Wire_plan.flip lsr 3) mod len in
    let bit = d.Wire_plan.flip land 7 in
    Bytes.set b byte
      (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
    [ b ]
  | Wire_plan.Duplicate -> [ b; Bytes.copy b ]
  | Wire_plan.Reorder | Wire_plan.Deliver -> [ b ]

let reset_reader t =
  t.reader <- Wire.Reader.create ();
  t.stalled <- 0

let send t ~now msg =
  Buffer.clear t.buf;
  Wire.encode t.buf msg;
  let b = Buffer.to_bytes t.buf in
  let d = Wire_plan.decision t.plan ~dir:t.dir ~frame:t.frame in
  t.frame <- t.frame + 1;
  t.stats.frames <- t.stats.frames + 1;
  let st = t.stats in
  (match d.Wire_plan.action with
  | Wire_plan.Drop -> st.dropped <- st.dropped + 1
  | Wire_plan.Truncate -> st.truncated <- st.truncated + 1
  | Wire_plan.Corrupt -> st.corrupted <- st.corrupted + 1
  | Wire_plan.Duplicate -> st.duplicated <- st.duplicated + 1
  | Wire_plan.Reorder | Wire_plan.Deliver -> ());
  let chunks =
    match d.Wire_plan.action with
    | Wire_plan.Reorder ->
      (* hold at most one frame; a second reorder while one is held
         releases the older frame first, which still swaps pairs *)
      (match t.held with
      | None ->
        t.held <- Some b;
        []
      | Some prev ->
        t.held <- Some b;
        [ prev ])
    | _ -> (
      let cs = mangle_chunks d b in
      match t.held with
      | None -> cs
      | Some prev ->
        (* successor first, held frame after: the reorder lands *)
        t.stats.reordered <- t.stats.reordered + 1;
        t.held <- None;
        cs @ [ prev ])
  in
  List.iter (fun c -> Wire.Reader.feed t.reader c 0 (Bytes.length c)) chunks;
  let decoded = ref [] in
  let continue = ref true in
  while !continue do
    match Wire.Reader.next t.reader with
    | Ok (Some m) -> decoded := m :: !decoded
    | Ok None -> continue := false
    | Error _ ->
      t.stats.reader_errors <- t.stats.reader_errors + 1;
      reset_reader t;
      continue := false
  done;
  let decoded = List.rev !decoded in
  (* liveness under desync: if sends keep arriving and nothing decodes
     while bytes are pending, the stream is wedged — reset it *)
  if decoded = [] && Wire.Reader.pending_bytes t.reader > 0 then begin
    t.stalled <- t.stalled + 1;
    if t.stalled >= stall_limit then begin
      t.stats.resyncs <- t.stats.resyncs + 1;
      reset_reader t
    end
  end
  else if decoded <> [] then t.stalled <- 0;
  t.stats.delivered <- t.stats.delivered + List.length decoded;
  (* the epsilon spacing keeps one send's messages in order once they
     land in a caller's event heap *)
  List.mapi
    (fun i m -> (now +. d.Wire_plan.delay +. (1e-9 *. float_of_int i), m))
    decoded

(* The TCP client's outbound path: pure byte mangling, no reader and no
   virtual clock. Duplicate and reorder are deliberately inert here —
   the real socket's replies are matched to requests FIFO, so injecting
   them client-side would corrupt the harness's own bookkeeping rather
   than test the server; drop/truncate/corrupt are the actions that
   exercise the server's reader-error and reconnect paths. *)
let mangle plan ~dir ~frame b =
  let d = Wire_plan.decision plan ~dir ~frame in
  match d.Wire_plan.action with
  | Wire_plan.Duplicate -> [ b ]
  | _ -> mangle_chunks d b
