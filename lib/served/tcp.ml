module Heap = Ic_heuristics.Heap
module Monotonic = Ic_prof.Monotonic
module Fleet = Hammer.Fleet
module Live = Ic_obs.Live

(* ------------------------------------------------------- I/O hardening *)

(* EINTR is a retry, not a failure, on every blocking call; a peer that
   vanished (ECONNRESET/EPIPE) is a connection-level event the caller
   turns into close+log, never an exception out of the loop.

   For EPIPE to arrive as an error at all, SIGPIPE's default
   kill-the-process disposition must go: forced (process-wide) on entry
   to both drivers — a chaos-dropped connection must not take the whole
   harness down with it. *)

let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let rec write_retry fd b off len =
  try Unix.write fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_retry fd b off len

let send_all fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + write_retry fd bytes !off (len - !off)
  done

let rec read_retry fd buf =
  try Unix.read fd buf 0 (Bytes.length buf)
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf

let rec select_retry r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w e timeout

(* ---------------------------------------------------------------- serve *)

type conn = { fd : Unix.file_descr; reader : Wire.Reader.t }

(* one OpenMetrics scrape response; we never parse the request — any
   bytes on a telemetry connection ask for the one page there is *)
let scrape_response live =
  let body = Live.openmetrics live in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: application/openmetrics-text; version=1.0.0; \
     charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let csv_header =
  "time_s,completions,leases,leased_tasks,inflight,frontier_depth,reissues,\
   retry_afters,rss_bytes\n"

let serve ?sink ?on_listen ?(once = false) ?journal ?(recover = false)
    ?(log = fun _ -> ()) ?live ?telemetry_port ?on_telemetry_listen
    ?telemetry_csv ?(telemetry_every_s = 1.0) ~port scfg dag =
  Lazy.force ignore_sigpipe;
  (* the scrape endpoint serves the Live registry; make one internally
     when it is requested without one *)
  let live =
    match (live, telemetry_port) with
    | None, Some _ -> Some (Live.create ())
    | _ -> live
  in
  let srv =
    match journal with
    | Some j when recover -> (
      match Server.recover ?sink ?live ~journal:j scfg dag with
      | Ok t -> t
      | Error e -> invalid_arg ("Tcp.serve: recovery failed: " ^ e))
    | _ -> Server.create ?sink ?journal ?live scfg dag
  in
  (* the journal's own counts, read at scrape time; attached here rather
     than in the server so in-process registries stay as they are *)
  (match (journal, live) with
  | Some j, Some l ->
    let c name f =
      Live.counter_reader l ("served.journal." ^ name) (fun () ->
          f (Journal.stats j))
    in
    c "appends" (fun s -> s.Journal.appends);
    c "writes" (fun s -> s.Journal.writes);
    c "bytes" (fun s -> s.Journal.bytes);
    c "checkpoints" (fun s -> s.Journal.checkpoints);
    c "checkpoints_deferred" (fun s -> s.Journal.checkpoints_deferred)
  | _ -> ());
  (* a read's replies leave only after the records they depend on: one
     journal flush per batch *)
  let grouped f =
    match journal with Some j -> Journal.group j f | None -> f ()
  in
  (* opened before the listener is bound: a bad path fails the call
     before any client can connect *)
  let csv_oc =
    match telemetry_csv with
    | None -> None
    | Some path ->
      let oc = open_out path in
      output_string oc csv_header;
      flush oc;
      Some oc
  in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen lsock 128;
  let bound =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (match on_listen with Some f -> f bound | None -> ());
  let tsock =
    match telemetry_port with
    | None -> None
    | Some tp ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, tp));
      Unix.listen s 16;
      let tp_bound =
        match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> tp
      in
      (match on_telemetry_listen with Some f -> f tp_bound | None -> ());
      Some s
  in
  let is_tsock fd = match tsock with Some s -> fd == s | None -> false in
  let tconns = ref [] in
  let last_csv = ref neg_infinity in
  let t0 = Monotonic.now () in
  let now () = Monotonic.now () -. t0 in
  let csv_row t =
    match csv_oc with
    | Some oc ->
      let st = Server.stats srv in
      Printf.fprintf oc "%.3f,%d,%d,%d,%d,%d,%d,%d,%d\n" t
        st.Server.completions st.Server.leases st.Server.leased_tasks
        st.Server.inflight (Server.frontier_depth srv) st.Server.reissues
        st.Server.retry_afters (Live.rss_bytes ());
      flush oc
    | None -> ()
  in
  let conns = ref [] in
  let accepted = ref 0 in
  let rbuf = Bytes.create 65536 in
  let out = Buffer.create 4096 in
  let close_conn ?reason c =
    (match reason with Some r -> log r | None -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns
  in
  let running = ref true in
  while !running do
    let t = now () in
    ignore (Server.expire srv ~now:t);
    if csv_oc <> None && t -. !last_csv >= telemetry_every_s then begin
      last_csv := t;
      csv_row t
    end;
    let next = Server.next_expiry srv in
    let timeout =
      if Float.is_finite next then Float.max 0.001 (Float.min 0.05 (next -. t))
      else 0.05
    in
    let fds = lsock :: List.map (fun c -> c.fd) !conns in
    let fds = match tsock with Some s -> s :: fds | None -> fds in
    let fds = List.rev_append !tconns fds in
    let ready, _, _ = select_retry fds [] [] timeout in
    List.iter
      (fun fd ->
        if fd == lsock then begin
          match Unix.accept lsock with
          | cfd, _ ->
            incr accepted;
            (* a reply batch must not wait on the ACK of the one before *)
            (try Unix.setsockopt cfd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            conns := { fd = cfd; reader = Wire.Reader.create () } :: !conns
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ -> ()
        end
        else if is_tsock fd then begin
          match Unix.accept fd with
          | cfd, _ -> tconns := cfd :: !tconns
          | exception Unix.Unix_error _ -> ()
        end
        else if List.memq fd !tconns then begin
          (* one-shot scrape: any readable bytes (or a close) on a
             telemetry connection get the whole exposition back *)
          tconns := List.filter (fun f -> f != fd) !tconns;
          (try ignore (read_retry fd rbuf) with Unix.Unix_error _ -> ());
          (match live with
          | Some l ->
            let resp = Bytes.of_string (scrape_response l) in
            (try send_all fd resp (Bytes.length resp)
             with Unix.Unix_error _ -> ())
          | None -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else
          match List.find_opt (fun c -> c.fd == fd) !conns with
          | None -> ()
          | Some c -> (
            let n =
              match read_retry c.fd rbuf with
              | n -> n
              | exception
                  Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                log "read: connection reset by peer";
                0
              | exception Unix.Unix_error (e, _, _) ->
                log ("read: " ^ Unix.error_message e);
                0
            in
            if n = 0 then close_conn c
            else begin
              (* every complete frame of this read is answered, and the
                 replies leave together in one write; a corrupt frame
                 still lets the replies before it out, then drops *)
              Wire.Reader.feed c.reader rbuf 0 n;
              Buffer.clear out;
              let rec answer () =
                match Wire.Reader.next c.reader with
                | Ok None -> None
                | Error e -> Some ("wire: " ^ e)
                | Ok (Some msg) ->
                  Wire.encode out (Server.handle srv ~now:(now ()) msg);
                  answer ()
              in
              let drop = grouped answer in
              let drop =
                try
                  send_all c.fd (Buffer.to_bytes out) (Buffer.length out);
                  drop
                with Unix.Unix_error (e, _, _) ->
                  Some ("write: " ^ Unix.error_message e)
              in
              match drop with
              | Some reason -> close_conn ~reason c
              | None -> ()
            end))
      ready;
    (* [once]: stay up while clients may still reconnect — exit only when
       the drain actually finished and the last connection has gone; a
       mid-drain disconnect (chaos, a restarting hammer) is a window, not
       the end *)
    if once && !accepted > 0 && !conns = [] && Server.is_done srv then
      running := false
  done;
  (try Unix.close lsock with Unix.Unix_error _ -> ());
  (match tsock with
  | Some s -> ( try Unix.close s with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    !tconns;
  (match csv_oc with
  | Some oc ->
    csv_row (now ());
    close_out_noerr oc
  | None -> ());
  Server.stats srv

(* --------------------------------------------------------------- hammer *)

type hammer_result = {
  workers : int;
  completes_sent : int;
  done_seen : bool;
  crashed : int;
  disconnects : int;
  reconnects : int;
  wall_s : float;
  lease_grant_p50_s : float;
  lease_grant_p99_s : float;
  task_service_p50_s : float;
  task_service_p99_s : float;
  busy_s : float array;
}

type ev =
  | Request of int * int
  | Complete_due of int * int
  | Churn_ev of int
  | Reconnect of int  (** connection index: try to dial again *)

type pkind = P_hello | P_lease | P_comp

(* an outstanding request on a connection, awaiting its FIFO-matched
   reply; [p_kind] says which reply shape to expect, [p_ep] lets a reply
   to a pre-churn request be discarded, [p_t] ages the queue head so a
   desynced connection (lost frame, stuck server) is cut and redialed *)
type pending = { p_worker : int; p_ep : int; p_kind : pkind; p_t : float }

(* dial-again delay for a lost server after [attempts] tries: 50 ms
   doubling to a 2 s cap — a dozen attempts rides out a kill -9 +
   restart window of ~15 s *)
let reconnect_policy attempts =
  Float.min 2.0 (0.05 *. (2.0 ** float_of_int attempts))

let max_reconnect_attempts = 12

(* a literal address as is; a name through the system resolver, an
   IPv4 answer first since [serve] listens on IPv4 loopback only *)
let resolve ~host ~port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> Error (Printf.sprintf "cannot resolve host %S" host)
  | first :: _ as answers ->
    let ai =
      Option.value ~default:first
        (List.find_opt (fun a -> a.Unix.ai_family = Unix.PF_INET) answers)
    in
    Ok ai.Unix.ai_addr

let hammer ?(host = "127.0.0.1") ?(connections = 4) ?chaos
    ?(reply_timeout_s = 2.0) ?(log = fun _ -> ()) ~port (cfg : Hammer.config) =
  let addr =
    match resolve ~host ~port with
    | Ok a -> a
    | Error e -> invalid_arg ("Tcp.hammer: " ^ e)
  in
  Lazy.force ignore_sigpipe;
  let t_start = Monotonic.now () in
  let elapsed () = Monotonic.now () -. t_start in
  let w = cfg.Hammer.workers in
  let nconn = max 1 (min connections w) in
  let socks = Array.make nconn Unix.stdin in
  let readers = Array.init nconn (fun _ -> Wire.Reader.create ()) in
  let pendings : pending Queue.t array =
    Array.init nconn (fun _ -> Queue.create ())
  in
  let open_ = Array.make nconn false in
  let dead = Array.make nconn false in
  let attempts = Array.make nconn 0 in
  let frames = Array.make nconn 0 in  (* chaos frame counter, per direction *)
  let total_pending = ref 0 in
  let reconnects = ref 0 in
  let conn_of i = i mod nconn in
  let f = Fleet.create cfg in
  (* workers finished or dead: the run ends when all are *)
  let settled = ref 0 in
  let finish i =
    Fleet.finish f i (elapsed ());
    incr settled
  in
  let completes_sent = ref 0 in
  let done_seen = ref false in
  let events : ev Heap.t = Heap.create () in
  (* each connection's frames of the current loop turn, sent by [flush]
     in one write; [chaos_buf] holds one encoded frame for chaos to mangle *)
  let outs = Array.init nconn (fun _ -> Buffer.create 4096) in
  let chaos_buf = Buffer.create 64 in
  let rbuf = Bytes.create 65536 in
  (* dial connection [c] and queue a Hello announcing the session for the
     next flush; [strict] (the initial dial) lets a refused connection
     raise out to the caller, a redial just reports failure *)
  let connect_conn ~strict c =
    let s = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match
      Unix.connect s addr;
      (try Unix.setsockopt s Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ())
    with
    | () ->
      socks.(c) <- s;
      readers.(c) <- Wire.Reader.create ();
      open_.(c) <- true;
      attempts.(c) <- 0;
      Wire.encode outs.(c) (Wire.Hello { worker = c });
      Queue.add
        { p_worker = c; p_ep = 0; p_kind = P_hello; p_t = elapsed () }
        pendings.(c);
      incr total_pending;
      true
    | exception e ->
      (try Unix.close s with Unix.Unix_error _ -> ());
      if strict then raise e else false
  in
  (* the connection under a worker's in-flight request died: forget the
     batch (its leases will expire and re-issue server-side) and ask
     again shortly, into whichever socket is alive by then *)
  let requeue_worker i t =
    if Fleet.alive f i then begin
      Fleet.requeue f i t;
      Heap.push events
        (t +. 0.05 +. (0.002 *. float_of_int (i land 63)))
        (Request (i, Fleet.epoch f i))
    end
  in
  let close_conn c t =
    if open_.(c) then begin
      open_.(c) <- false;
      (try Unix.close socks.(c) with Unix.Unix_error _ -> ());
      Buffer.clear outs.(c);
      (* outstanding replies on this connection will never arrive *)
      total_pending := !total_pending - Queue.length pendings.(c);
      Queue.iter
        (fun p -> if p.p_kind <> P_hello then requeue_worker p.p_worker t)
        pendings.(c);
      Queue.clear pendings.(c);
      if not dead.(c) then
        Heap.push events
          (t +. reconnect_policy attempts.(c))
          (Reconnect c)
    end
  in
  let send i msg ~kind =
    let c = conn_of i in
    if dead.(c) then finish i
    else if not open_.(c) then requeue_worker i (elapsed ())
    else begin
      (match chaos with
      | None -> Wire.encode outs.(c) msg
      | Some plan ->
        Buffer.clear chaos_buf;
        Wire.encode chaos_buf msg;
        let fr = frames.(c) in
        frames.(c) <- fr + 1;
        List.iter (Buffer.add_bytes outs.(c))
          (Chaos.mangle plan ~dir:c ~frame:fr (Buffer.to_bytes chaos_buf)));
      Queue.add
        { p_worker = i; p_ep = Fleet.epoch f i; p_kind = kind;
          p_t = elapsed () }
        pendings.(c);
      incr total_pending
    end
  in
  (* one write per connection per loop turn; a failed write is a lost
     connection, and [close_conn] requeues every worker waiting on it *)
  let flush () =
    Array.iteri
      (fun c b ->
        if open_.(c) then
          match send_all socks.(c) (Buffer.to_bytes b) (Buffer.length b) with
          | () -> Buffer.clear b
          | exception Unix.Unix_error _ -> close_conn c (elapsed ()))
      outs
  in
  let schedule_churn i =
    let t = Fleet.next_churn f i in
    if t < infinity then Heap.push events t (Churn_ev i)
  in
  for c = 0 to nconn - 1 do
    ignore (connect_conn ~strict:true c)
  done;
  for i = 0 to w - 1 do
    Heap.push events (Fleet.opening f i) (Request (i, 0));
    schedule_churn i
  done;
  let dispatch_event ev t =
    match ev with
    | Request (i, ep) ->
      if ep = Fleet.epoch f i && Fleet.alive f i then begin
        Fleet.request f i t;
        send i (Wire.Lease_req { worker = i; k = cfg.Hammer.k }) ~kind:P_lease
      end
    | Complete_due (i, ep) ->
      if ep = Fleet.epoch f i then begin
        let task = Fleet.take f i t in
        if task >= 0 then begin
          incr completes_sent;
          send i (Wire.Complete { worker = i; task }) ~kind:P_comp
        end
      end
    | Churn_ev i ->
      (match Fleet.churn f i t with
      | Fleet.Crashed -> incr settled
      | Fleet.Rejoined -> Heap.push events t (Request (i, Fleet.epoch f i))
      | Fleet.Disconnected | Fleet.Unchanged -> ());
      schedule_churn i
    | Reconnect c ->
      if (not dead.(c)) && not open_.(c) then begin
        if connect_conn ~strict:false c then incr reconnects
        else begin
          attempts.(c) <- attempts.(c) + 1;
          if attempts.(c) > max_reconnect_attempts then dead.(c) <- true
          else
            Heap.push events
              (t +. reconnect_policy attempts.(c))
              (Reconnect c)
        end
      end
  in
  let handle_reply c msg =
    let { p_worker = i; p_ep; p_kind; p_t = _ } = Queue.pop pendings.(c) in
    decr total_pending;
    match p_kind with
    | P_hello -> (
      match msg with Wire.Done _ -> done_seen := true | _ -> ())
    | _ -> (
      match msg with
      | Wire.Done _ ->
        done_seen := true;
        if Fleet.alive f i then finish i
      | _ when p_ep <> Fleet.epoch f i -> ()
      | Wire.Lease { tasks; expires_in_s = _ } ->
        Heap.push events
          (Fleet.lease f i (elapsed ()) tasks)
          (Complete_due (i, p_ep))
      | Wire.Retry_after { delay_s } ->
        (* due a constant delay after the monotonic clock: in order *)
        Heap.append events
          (elapsed () +. Float.max delay_s 1e-4)
          (Request (i, p_ep))
      | Wire.Ack ->
        let t = elapsed () in
        if p_kind = P_comp && Fleet.has_more f i then
          Heap.push events (Fleet.ack f i t) (Complete_due (i, p_ep))
        else Heap.push events (Fleet.go_idle f i t) (Request (i, p_ep))
      | _ -> ())
  in
  let progress_possible () =
    (not (Heap.is_empty events)) || !total_pending > 0
  in
  (* a socket-level failure that escapes the per-call guards (a select
     on a descriptor the kernel yanked, an exotic errno) used to raise
     out of the run and lose every metric with it; the harness instead
     abandons the wire and falls through to the same finalization the
     clean-drain and reconnect-timeout exits use, so the caller always
     gets a result to write its artifacts from *)
  (try
    while !settled < w && progress_possible () do
    (* fire every event that is due *)
    while Heap.min_key events <= elapsed () do
      let ev = Heap.pop_min events in
      dispatch_event ev (elapsed ())
    done;
    flush ();
    (* a queue head older than the reply timeout means the request or
       its reply died on the wire (chaos, a crashed server): the FIFO is
       unrecoverable, cut the connection and let reconnect heal it *)
    let tnow = elapsed () in
    for c = 0 to nconn - 1 do
      if open_.(c) && not (Queue.is_empty pendings.(c)) then begin
        let head = Queue.peek pendings.(c) in
        if tnow -. head.p_t > reply_timeout_s then close_conn c tnow
      end
    done;
    if !settled < w && progress_possible () then begin
      (* at most 0.05 s, also when no event is due ([min_key] = infinity) *)
      let timeout =
        Float.max 0.0 (Float.min 0.05 (Heap.min_key events -. elapsed ()))
      in
      let fds = ref [] in
      Array.iteri (fun c s -> if open_.(c) then fds := s :: !fds) socks;
      if !fds = [] then
        (* between connections: sleep to the next event (reconnect) *)
        (if timeout > 0.0 then ignore (select_retry [] [] [] timeout))
      else begin
        let ready, _, _ = select_retry !fds [] [] timeout in
        List.iter
          (fun fd ->
            let c = ref (-1) in
            Array.iteri
              (fun j s -> if open_.(j) && s == fd then c := j)
              socks;
            let c = !c in
            if c >= 0 && open_.(c) then begin
              let n =
                try read_retry socks.(c) rbuf
                with Unix.Unix_error _ -> 0
              in
              if n = 0 then close_conn c (elapsed ())
              else begin
                Wire.Reader.feed readers.(c) rbuf 0 n;
                let continue = ref true in
                while !continue do
                  match Wire.Reader.next readers.(c) with
                  | Ok None -> continue := false
                  | Error _ ->
                    close_conn c (elapsed ());
                    continue := false
                  | Ok (Some msg) ->
                    if Queue.is_empty pendings.(c) then begin
                      (* unsolicited reply: protocol break, cut the conn
                         and let the redial resynchronize *)
                      close_conn c (elapsed ());
                      continue := false
                    end
                    else handle_reply c msg
                done
              end
            end)
          ready
      end
    end
    done
  with Unix.Unix_error (e, fn, _) ->
    log
      (Printf.sprintf "hammer: %s: %s — finalizing with partial results" fn
         (Unix.error_message e)));
  let tend = elapsed () in
  Array.iteri
    (fun c _ ->
      dead.(c) <- true;
      close_conn c tend)
    socks;
  let r = Fleet.close f tend in
  {
    workers = w;
    completes_sent = !completes_sent;
    done_seen = !done_seen;
    crashed = r.Fleet.crashed;
    disconnects = r.Fleet.disconnects;
    reconnects = !reconnects;
    wall_s = tend;
    lease_grant_p50_s = r.Fleet.grant_p50_s;
    lease_grant_p99_s = r.Fleet.grant_p99_s;
    task_service_p50_s = r.Fleet.service_p50_s;
    task_service_p99_s = r.Fleet.service_p99_s;
    busy_s = r.Fleet.busy_s;
  }
