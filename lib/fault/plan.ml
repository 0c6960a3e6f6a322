type t = {
  crash_rate : float;
  disconnect_rate : float;
  mean_downtime : float;
  straggler_probability : float;
  straggler_factor : float;
  loss_probability : float;
  fail_probability : float;
  seed : int;
}

let check_rate name r =
  if (not (Float.is_finite r)) || r < 0.0 then
    invalid_arg (Printf.sprintf "Fault.Plan.make: %s must be finite and >= 0" name)

let check_probability name p =
  if (not (Float.is_finite p)) || p < 0.0 || p >= 1.0 then
    invalid_arg (Printf.sprintf "Fault.Plan.make: %s must be in [0, 1)" name)

let make ?(crash_rate = 0.0) ?(disconnect_rate = 0.0) ?(mean_downtime = 1.0)
    ?(straggler_probability = 0.0) ?(straggler_factor = 4.0)
    ?(loss_probability = 0.0) ?(fail_probability = 0.0) ?(seed = 0xFA17) () =
  check_rate "crash_rate" crash_rate;
  check_rate "disconnect_rate" disconnect_rate;
  if (not (Float.is_finite mean_downtime)) || mean_downtime <= 0.0 then
    invalid_arg "Fault.Plan.make: mean_downtime must be finite and positive";
  check_probability "straggler_probability" straggler_probability;
  if (not (Float.is_finite straggler_factor)) || straggler_factor < 1.0 then
    invalid_arg "Fault.Plan.make: straggler_factor must be finite and >= 1";
  check_probability "loss_probability" loss_probability;
  check_probability "fail_probability" fail_probability;
  {
    crash_rate;
    disconnect_rate;
    mean_downtime;
    straggler_probability;
    straggler_factor;
    loss_probability;
    fail_probability;
    seed;
  }

let none = make ()

let is_none t =
  t.crash_rate = 0.0 && t.disconnect_rate = 0.0
  && t.straggler_probability = 0.0 && t.loss_probability = 0.0
  && t.fail_probability = 0.0

(* Every decision draws from its own RNG state keyed by (seed, stream tag,
   coordinates), so sampling is independent of the order the simulator asks
   in — the same (task, attempt) always meets the same fate. *)
let stream t tag a b = Random.State.make [| t.seed; tag; a; b |]

(* inverse-CDF exponential with the given rate; u < 1 so this is finite *)
let exp_sample rate u = -.Float.log1p (-.u) /. rate

let crash_time t ~client =
  if t.crash_rate <= 0.0 then infinity
  else
    let rng = stream t 0x3C client 0 in
    exp_sample t.crash_rate (Random.State.float rng 1.0)

let disconnect t ~client ~k =
  if t.disconnect_rate <= 0.0 then None
  else
    let rng = stream t 0xD1 client k in
    let gap = exp_sample t.disconnect_rate (Random.State.float rng 1.0) in
    let downtime =
      t.mean_downtime *. (0.5 +. Random.State.float rng 1.0)
    in
    Some (gap, downtime)

module Churn = struct
  type kind = Crash | Disconnect of float | Rejoin
  type event = { time : float; kind : kind }

  (* [Up]: available since [avail_t], episode [k] next; [Down]: offline,
     rejoining at the carried time; [Exhausted]: crashed, or no further
     fault can fire *)
  type phase = Up | Down of float | Exhausted

  type cursor = {
    plan : t;
    client : int;
    crash_t : float;
    mutable k : int;
    mutable avail_t : float;
    mutable phase : phase;
  }

  let create plan ~client =
    {
      plan;
      client;
      crash_t = crash_time plan ~client;
      k = 0;
      avail_t = 0.0;
      phase = Up;
    }

  let crash c =
    c.phase <- Exhausted;
    Some { time = c.crash_t; kind = Crash }

  let next c =
    match c.phase with
    | Exhausted -> None
    | Down rejoin_t ->
      if c.crash_t <= rejoin_t then crash c
      else begin
        c.phase <- Up;
        c.avail_t <- rejoin_t;
        c.k <- c.k + 1;
        Some { time = rejoin_t; kind = Rejoin }
      end
    | Up -> (
      match disconnect c.plan ~client:c.client ~k:c.k with
      | None ->
        if Float.is_finite c.crash_t then crash c
        else begin
          c.phase <- Exhausted;
          None
        end
      | Some (gap, downtime) ->
        let t = c.avail_t +. gap in
        if c.crash_t <= t then crash c
        else begin
          c.phase <- Down (t +. downtime);
          Some { time = t; kind = Disconnect downtime }
        end)

  let events plan ~client ~horizon =
    let c = create plan ~client in
    let rec go acc =
      match next c with
      | Some e when e.time <= horizon -> go (e :: acc)
      | _ -> List.rev acc
    in
    go []
end

module Wire = struct
  type t = {
    drop : float;
    duplicate : float;
    reorder : float;
    truncate : float;
    corrupt : float;
    delay_mean : float;
    seed : int;
  }

  let check name p =
    if (not (Float.is_finite p)) || p < 0.0 || p >= 1.0 then
      invalid_arg (Printf.sprintf "Fault.Plan.Wire.make: %s must be in [0, 1)" name)

  let make ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) ?(truncate = 0.0)
      ?(corrupt = 0.0) ?(delay_mean = 0.0) ?(seed = 0xC4A0) () =
    check "drop" drop;
    check "duplicate" duplicate;
    check "reorder" reorder;
    check "truncate" truncate;
    check "corrupt" corrupt;
    if (not (Float.is_finite delay_mean)) || delay_mean < 0.0 then
      invalid_arg "Fault.Plan.Wire.make: delay_mean must be finite and >= 0";
    { drop; duplicate; reorder; truncate; corrupt; delay_mean; seed }

  let none = make ()

  let is_none t =
    t.drop = 0.0 && t.duplicate = 0.0 && t.reorder = 0.0 && t.truncate = 0.0
    && t.corrupt = 0.0 && t.delay_mean = 0.0

  type action = Deliver | Drop | Duplicate | Reorder | Truncate | Corrupt
  type decision = { action : action; delay : float; cut : float; flip : int }

  let deliver = { action = Deliver; delay = 0.0; cut = 1.0; flip = 0 }

  (* One RNG state per frame, keyed by (seed, tag, direction, frame), and a
     fixed draw order inside it: a frame meets the same fate no matter how
     many frames the other direction has carried, and turning one knob up
     does not re-roll the others. Destructive actions take precedence over
     merely unfriendly ones. *)
  let decision t ~dir ~frame =
    if is_none t then deliver
    else begin
      let rng = Random.State.make [| t.seed; 0x31; dir; frame |] in
      let u_drop = Random.State.float rng 1.0 in
      let u_trunc = Random.State.float rng 1.0 in
      let u_corrupt = Random.State.float rng 1.0 in
      let u_dup = Random.State.float rng 1.0 in
      let u_reorder = Random.State.float rng 1.0 in
      let cut = Random.State.float rng 1.0 in
      let flip = Random.State.int rng 0x3FFFFFFF in
      let delay =
        if t.delay_mean <= 0.0 then 0.0
        else t.delay_mean *. -.Float.log1p (-.Random.State.float rng 1.0)
      in
      let action =
        if u_drop < t.drop then Drop
        else if u_trunc < t.truncate then Truncate
        else if u_corrupt < t.corrupt then Corrupt
        else if u_dup < t.duplicate then Duplicate
        else if u_reorder < t.reorder then Reorder
        else Deliver
      in
      { action; delay; cut; flip }
    end
end

type attempt_outcome = { slowdown : float; lost : bool; failed : bool }

let attempt t ~task ~attempt =
  if
    t.straggler_probability = 0.0 && t.loss_probability = 0.0
    && t.fail_probability = 0.0
  then { slowdown = 1.0; lost = false; failed = false }
  else
    let rng = stream t 0xA7 task attempt in
    (* fixed draw order keeps each coordinate's fate stable *)
    let u_straggle = Random.State.float rng 1.0 in
    let u_lost = Random.State.float rng 1.0 in
    let u_fail = Random.State.float rng 1.0 in
    let slowdown =
      if u_straggle < t.straggler_probability then t.straggler_factor else 1.0
    in
    let lost = u_lost < t.loss_probability in
    let failed = (not lost) && u_fail < t.fail_probability in
    { slowdown; lost; failed }
