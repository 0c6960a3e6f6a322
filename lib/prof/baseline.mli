(** Statistical comparator over bench records — the perf-regression gate.

    A bench run emits one JSON object per (bench, repetition) with a
    ["bench"] name and numeric metric fields. Repetitions are folded with
    a per-metric minimum (min-of-k: noise only adds time), then each
    (bench, metric) present in both runs is compared against a relative
    threshold. CI commits a baseline file and fails the build when any
    gated metric regresses past its threshold. *)

type record = { bench : string; metrics : (string * float) list }

type comparison = {
  cmp_bench : string;
  metric : string;
  base : float;
  cur : float;
  ratio : float;  (** [cur /. base]; [nan] when [base <= 0] *)
  threshold : float option;  (** [None] = informational, never gates *)
  regressed : bool;
}

val default_thresholds : (string * float) list
(** [[("time_ms", 0.25); ("allocated_mb", 0.5)]] — a metric regresses when
    [cur > base * (1 + threshold)]. *)

val records_of_json : Ic_obs.Json.value -> record list
(** Records from a parsed JSON array; elements without a ["bench"] string
    field are skipped. *)

val load_string : string -> (record list, string) result
(** Parse a whole document as a JSON array of records. [Error] when it
    is not JSON or its top-level value is not an array. *)

val load_file : string -> (record list, string) result

val fold_min : record list -> record list
(** Collapse repeated records per bench name to the per-metric minimum,
    preserving first-seen name order. *)

val compare_runs :
  ?thresholds:(string * float) list ->
  baseline:record list ->
  current:record list ->
  unit ->
  comparison list
(** Fold both runs with {!fold_min}, then compare every (bench, metric)
    pair present in both. Order follows the baseline. *)

val regressed : comparison list -> bool

val pp_comparisons : out_channel -> comparison list -> unit
(** Fixed-width verdict table (ok / improved / REGRESSED / -). *)
