(** Descriptive statistics for experiment reports. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation *)
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val empty_summary : summary

val summarize : float list -> summary
(** Full summary of a sample list; [empty_summary] for []. *)

val summarize_ints : int list -> summary

val mean : float list -> float

val ratio : num:float -> den:float -> float
(** [num /. den], [nan] when [den = 0.]. *)
