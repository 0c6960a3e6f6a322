(** Loopback TCP transport for the lease server and the load harness.

    {!serve} wraps a {!Server} in a single-threaded select loop:
    length-prefixed frames in, one reply per request, lease expiries
    fired from the monotonic clock between polls. {!hammer} is the matching
    real-time client: it runs {!Hammer}'s worker model (same batch
    discipline, same seeded Pareto service latencies, same
    {!Ic_fault.Plan.Churn} stream) but multiplexes the virtual workers
    over a handful of real connections — the protocol is strict
    request/response, so replies on a connection are matched to
    outstanding requests FIFO.

    Both ends survive a hostile wire: every blocking call retries
    [EINTR]; a peer that vanished ([ECONNRESET]/[EPIPE]) closes that one
    connection — logged, never raised. The hammer additionally redials a
    lost server with exponential backoff and re-announces its session
    with a [Hello], so a served process killed mid-drain and restarted
    with [--recover] is drained to exactly-once completion by the same
    client fleet.

    Writes are coalesced, one syscall per batch: {!serve} answers every
    complete frame of a read and sends the replies together in one
    write; {!hammer} appends each loop turn's frames to a per-connection
    buffer and sends each buffer in one write before it polls. Both use
    [TCP_NODELAY], so a batch never waits on the ACK of the one before.

    Writes block, and cannot deadlock: the loop is closed (a worker asks
    again only once answered), so the bytes in flight on a connection
    are bounded by about (workers on it) × (largest frame) — a few KiB
    for the fleets here, far below a loopback socket buffer — and a
    blocked write always drains into the peer's kernel buffer.

    Both ends are driver code, not a production network stack: blocking
    writes, one read buffer, no TLS. They exist so the CI smoke jobs
    (including the kill -9 crash-recovery job) and the operator CLI can
    exercise the sans-IO core over real sockets. *)

val serve :
  ?sink:Ic_obs.Trace.t ->
  ?on_listen:(int -> unit) ->
  ?once:bool ->
  ?journal:Journal.t ->
  ?recover:bool ->
  ?log:(string -> unit) ->
  ?live:Ic_obs.Live.t ->
  ?flight:Ic_obs.Flight.t ->
  ?telemetry_port:int ->
  ?on_telemetry_listen:(int -> unit) ->
  ?telemetry_csv:string ->
  ?telemetry_every_s:float ->
  port:int ->
  Server.config ->
  Ic_dag.Dag.t ->
  Server.stats
(** Bind [127.0.0.1:port] ([port] 0 picks a free one), call [on_listen]
    with the bound port, then serve until interrupted. With [once] (off
    by default) the loop exits once at least one client has connected,
    every connection has closed, {e and} the drain is complete
    ({!Server.is_done}) — a mid-drain disconnect (chaos, a restarting
    hammer) keeps the server up for the redial. A connection that sends
    a corrupt frame is dropped; the server state is untouched (its
    leases simply expire).

    [journal] hands the server a write-ahead {!Journal}; with [recover]
    the server is built by {!Server.recover} from that journal's replay
    instead of fresh (raises [Invalid_argument] if the replay does not
    fit the dag). [log] receives one line per connection-level incident
    (resets, corrupt frames); default drops them. Returns the final
    {!Server.stats}.

    [telemetry_port] opens a second loopback listener in the same
    select loop serving the {!Ic_obs.Live} registry in OpenMetrics text
    exposition format: any HTTP-ish request gets one
    [application/openmetrics-text] page and a close (this is a scrape
    endpoint, not a web server). [on_telemetry_listen] reports the
    bound telemetry port (pass [0] to pick one). [telemetry_csv]
    appends one snapshot row (completions, leases, inflight, frontier
    depth, re-issues, RSS) roughly every [telemetry_every_s] (default
    1.0) seconds, for trend lines without a scraper. [live] supplies
    the registry to serve — one is created internally when telemetry is
    requested without it; [flight] hands the server a crash-surviving
    {!Ic_obs.Flight} recorder. *)

val resolve : host:string -> port:int -> (Unix.sockaddr, string) result
(** The stream address of [host]:[port]: a literal IPv4 or IPv6 address
    as is, otherwise the system resolver's answer, an IPv4 one preferred
    when there are several ({!serve} listens on IPv4 loopback only).
    [Error] (one line) when the name does not resolve. Shared by
    {!hammer} and the [top] subcommand; the socket domain follows from
    the address ([Unix.domain_of_sockaddr]). *)

(** Client-side view of a hammer run; the authoritative counters live in
    the server's {!Ic_obs.Live} registry. *)
type hammer_result = {
  workers : int;
  completes_sent : int;  (** [Complete] frames put on the wire *)
  done_seen : bool;  (** the server answered [Done] at least once *)
  crashed : int;
  disconnects : int;  (** worker-model churn disconnects *)
  reconnects : int;  (** sockets successfully redialed after a loss *)
  wall_s : float;
  lease_grant_p50_s : float;
  lease_grant_p99_s : float;
  task_service_p50_s : float;
  task_service_p99_s : float;
  busy_s : float array;  (** per-worker wall time holding a lease batch *)
}

val hammer :
  ?host:string ->
  ?connections:int ->
  ?chaos:Ic_fault.Plan.Wire.t ->
  ?reply_timeout_s:float ->
  ?log:(string -> unit) ->
  port:int ->
  Hammer.config ->
  hammer_result
(** Connect [connections] (default 4) sockets to [host] (default
    loopback) and drive [config.workers] virtual workers over them
    (worker [w] is pinned to connection [w mod connections]) in real
    time: service latencies and think times become actual delays in the
    event loop. Returns when every worker is finished (saw [Done]) or
    dead (crashed by the churn plan, or stranded on a connection that
    exhausted its redial budget) and no replies are outstanding.

    Each (re)connection opens with a [Hello] carrying the connection
    index, resuming the session server-side. A lost connection requeues
    its in-flight workers and redials with exponential backoff (50 ms
    doubling to a 2 s cap, up to 12 attempts — successes counted in
    [reconnects]); a reply older than [reply_timeout_s] (default 2.0) at
    the head of a connection's FIFO means the wire ate a frame, so the
    connection is cut and redialed. [chaos] mangles outgoing non-[Hello]
    frames through {!Chaos.mangle} (direction = connection index),
    exercising the server's reader-error path over real sockets; the
    initial dial still raises if the server is unreachable.

    [host] goes through {!resolve}, so a name or an IPv6 literal works;
    raises [Invalid_argument] when it does not resolve. *)
