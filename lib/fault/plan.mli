(** Fault plans: seeded, deterministic fault injectors for the IC
    simulator.

    A plan describes the unreliable-client regime the paper's reference
    [14] is about — clients that crash permanently, disconnect and later
    rejoin, straggle (run an episode much slower than their nominal
    speed), or silently lose an in-flight result. The plan itself is pure
    data; every sampling function is a deterministic hash of
    [(seed, decision coordinates)], so the injected faults do not depend
    on the order the simulator happens to ask in, and identically seeded
    runs are byte-reproducible.

    The library is dependency-free (stdlib only), like [Ic_obs]. *)

type t = private {
  crash_rate : float;
      (** permanent-crash rate per client per unit of simulated time
          (exponential inter-arrival); [0] = clients never crash *)
  disconnect_rate : float;
      (** transient-disconnect rate per client per unit of available
          time; [0] = never *)
  mean_downtime : float;
      (** mean length of an offline episode (downtime is sampled
          uniformly in [0.5, 1.5] times this mean) *)
  straggler_probability : float;
      (** chance that a given attempt straggles (runs [straggler_factor]
          times slower); in [0, 1) *)
  straggler_factor : float;  (** slowdown multiplier; at least 1 *)
  loss_probability : float;
      (** chance that an attempt's result is silently lost in transit:
          the client moves on, the server only finds out through a
          liveness timeout; in [0, 1) *)
  fail_probability : float;
      (** chance that an attempt ends in a {e reported} failure — the
          legacy end-of-task coin flip, observed by the server the moment
          the attempt ends; in [0, 1) *)
  seed : int;
}

val none : t
(** No faults at all; the default. *)

val make :
  ?crash_rate:float ->
  ?disconnect_rate:float ->
  ?mean_downtime:float ->
  ?straggler_probability:float ->
  ?straggler_factor:float ->
  ?loss_probability:float ->
  ?fail_probability:float ->
  ?seed:int ->
  unit ->
  t
(** Validates every knob: rates finite and non-negative, probabilities in
    [0, 1), [straggler_factor >= 1], [mean_downtime > 0]. Defaults are
    all-zero (= {!none}) with [seed 0xFA17]. *)

val is_none : t -> bool
(** No fault of any kind can ever fire under this plan. *)

(** {1 Deterministic samplers}

    All samplers are pure functions of the plan and their coordinates. *)

val crash_time : t -> client:int -> float
(** The simulated time at which [client] crashes permanently;
    [infinity] when it never does. *)

val disconnect : t -> client:int -> k:int -> (float * float) option
(** [(gap, downtime)] of the [k]-th offline episode of [client]: the
    episode starts [gap] time units after the client last became
    available and lasts [downtime]. [None] when disconnects are
    disabled. *)

(** {1 Churn stream}

    The availability timeline of one client, folded into a single
    time-ordered event stream: transient disconnect/rejoin episodes cut
    short by the permanent crash, all drawn from the same deterministic
    samplers above. This is {e the} churn model — the simulator's event
    loop and [Ic_served]'s load harness both consume it, so a plan means
    the same fate for client [c] whether the client is simulated
    in-process or hammering a socket. *)
module Churn : sig
  type kind =
    | Crash  (** permanent; the stream ends after this event *)
    | Disconnect of float
        (** went offline; the payload is the episode's downtime, so a
            consumer knows the outage length without waiting for the
            matching [Rejoin] *)
    | Rejoin  (** back online *)

  type event = { time : float; kind : kind }

  type cursor
  (** A mutable position in one client's stream. *)

  val create : t -> client:int -> cursor

  val next : cursor -> event option
  (** The next event, times strictly increasing: alternating
      [Disconnect]/[Rejoin] pairs, then at most one [Crash] (which
      pre-empts any episode it interrupts), then [None] forever.
      Identically seeded cursors replay identical streams. *)

  val events : t -> client:int -> horizon:float -> event list
  (** Every event at or before [horizon], eagerly. *)
end

(** {1 Wire chaos}

    A seeded frame-mangling plan for a message transport: each frame,
    identified by its (direction, index) coordinates, is independently
    dropped, duplicated, reordered past its successor, truncated,
    bit-flipped or delayed. Like every other sampler here the decision is
    a pure hash of [(seed, 0x31, dir, frame)], so a chaos run is
    byte-reproducible and a frame's fate does not depend on traffic in
    the other direction. [Ic_served]'s [Chaos] mangler consumes this to
    exercise the wire [Reader]'s error paths and the server's
    duplicate/stale handling deterministically. *)
module Wire : sig
  type t = private {
    drop : float;  (** chance a frame vanishes; in [0, 1) *)
    duplicate : float;  (** chance a frame arrives twice *)
    reorder : float;
        (** chance a frame is held back and delivered after its
            successor *)
    truncate : float;
        (** chance a frame loses its tail (desyncing the byte stream) *)
    corrupt : float;  (** chance a single bit of the frame is flipped *)
    delay_mean : float;
        (** mean extra delivery latency (exponential); 0 = none *)
    seed : int;
  }

  val none : t

  val make :
    ?drop:float ->
    ?duplicate:float ->
    ?reorder:float ->
    ?truncate:float ->
    ?corrupt:float ->
    ?delay_mean:float ->
    ?seed:int ->
    unit ->
    t
  (** Probabilities must be in [0, 1), [delay_mean] finite and
      non-negative; raises [Invalid_argument] otherwise. Defaults are
      all-zero with seed [0xC4A0]. *)

  val is_none : t -> bool

  type action = Deliver | Drop | Duplicate | Reorder | Truncate | Corrupt

  type decision = {
    action : action;
    delay : float;  (** extra delivery latency, 0 when [delay_mean] is 0 *)
    cut : float;
        (** for [Truncate]: fraction of the frame to keep, in [0, 1) *)
    flip : int;  (** for [Corrupt]: raw bit-position material *)
  }

  val decision : t -> dir:int -> frame:int -> decision
  (** The fate of the [frame]-th frame sent in direction [dir].
      Destructive actions win ties: drop > truncate > corrupt >
      duplicate > reorder. [delay] applies to whatever is delivered. *)
end

type attempt_outcome = {
  slowdown : float;  (** execution-time multiplier; 1 when not straggling *)
  lost : bool;  (** result silently lost (server unaware until timeout) *)
  failed : bool;  (** reported failure at the end of the attempt *)
}

val attempt : t -> task:int -> attempt:int -> attempt_outcome
(** The fate of the [attempt]-th attempt at [task]. [lost] and [failed]
    are mutually exclusive ([lost] wins). *)
