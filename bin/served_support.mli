(* The bin executables' view of the lease-serving subsystem: the serve
   and hammer subcommands. *)

val serve :
  dag:Ic_dag.Dag.t ->
  port:int ->
  shards:int ->
  max_lease:int ->
  expected_s:float ->
  once:bool ->
  journal:string option ->
  checkpoint_every:int ->
  fsync:bool ->
  recover:bool ->
  telemetry_port:int option ->
  telemetry_csv:string option ->
  telemetry_every_s:float ->
  flight:string option ->
  ?metrics_out:string ->
  ?trace_out:string ->
  unit ->
  (Ic_served.Server.stats, string) result
(* Bind 127.0.0.1:[port] ([port] 0 picks a free one; the bound port is
   printed to stdout either way) and serve [dag]'s tasks until
   interrupted — or, with [once], until at least one client has come,
   every connection has closed and the drain is complete. Returns the
   server's final counters.

   [journal] names a write-ahead journal file: completions and lease
   grants are appended before they are acknowledged, with a compacted
   checkpoint every [checkpoint_every] completions; [fsync] makes each
   append machine-crash durable (default is flush-per-append, which
   survives kill -9). [recover] rebuilds the server from that journal's
   replay instead of starting fresh — previously journaled completions
   are never re-leased, leased-but-unjournaled tasks are re-issued.

   [telemetry_port] opens a second loopback listener (0 picks a free
   one; the bound port is printed as "telemetry on 127.0.0.1:PORT")
   answering every request with one OpenMetrics text page of the live
   served.* registry and process gauges — what `ic_sched top` and a
   Prometheus scraper read. [telemetry_csv] appends a counters snapshot
   row every [telemetry_every_s] seconds. [flight] names an mmap'd
   flight-recorder ring (Ic_obs.Trace.recorder) that becomes the
   server's trace sink: every allocation/completion/expiry lands in it
   and survives kill -9 (read it back with `ic_sched blackbox`); with
   [recover] an existing ring of the same geometry is continued, not
   truncated.

   [metrics_out]/[trace_out] write the served.* live registry as JSON
   (Ic_obs.Live.to_json) and a Chrome trace-event file with one track
   per shard after the loop exits. Errors: invalid config (a port
   outside 0..65535 included), a bind failure, a journal that cannot be opened or does not fit the dag, a
   flight ring that cannot be created, [recover] without [journal], or
   both [flight] and [trace_out] (the server has one trace sink). *)

val hammer :
  host:string ->
  port:int ->
  workers:int ->
  connections:int ->
  k:int ->
  churn:bool ->
  seed:int ->
  mean_service_s:float ->
  think_s:float ->
  chaos:float ->
  chaos_seed:int ->
  utilization_out:string option ->
  ?metrics_out:string ->
  unit ->
  (Ic_served.Tcp.hammer_result, string) result
(* Drive [workers] simulated workers (lease batches of [k], seeded
   Pareto service latencies) against the server at [host]:[port] over
   [connections] real sockets. [churn] turns on a seeded
   crash/disconnect/rejoin plan. [chaos] > 0 mangles outgoing frames:
   dropped and bit-flipped at that rate, truncated at half of it, from
   the deterministic stream seeded by [chaos_seed] — the client heals
   by reply timeout and reconnect. [utilization_out] writes a
   per-worker busy-time CSV (worker,busy_s,utilization); [metrics_out]
   writes the client-side hammer.* registry as JSON. Both files are
   written on every exit that produced a result — including runs cut
   short by a dead server once the reconnect/reply-timeout budget is
   exhausted, which previously discarded them. Errors: invalid config,
   a [host] that does not resolve (Ic_served.Tcp.resolve), or the
   initial dial refused. *)
