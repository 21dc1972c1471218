(** Summary statistics over integer samples (storage bits, round counts,
    step counts), used when an experiment reports across many seeds. *)

type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;  (** Population standard deviation; 0 for one sample. *)
  median : float;
}

val summarize : int list -> summary
(** Raises [Invalid_argument] on an empty list. *)

val percentile : int list -> p:float -> float
(** Linear-interpolation percentile, [0 <= p <= 100]: rank
    [p/100 * (n-1)] in the sorted samples, interpolated between its two
    neighbours, so the result need not be an observed sample.  Raises
    [Invalid_argument] on an empty list or [p] out of range. *)

val nearest_rank : float array -> p:float -> float
(** Nearest-rank percentile of an ascending array: the sample at rank
    [ceil(p/100 * n)], always an observed value.  [p = 100] is the
    maximum; an empty array gives 0.  This is the latency percentile
    [loadgen] reports, and the committed service baseline was measured
    with it.  On the same samples it can differ from {!percentile},
    which interpolates: for [[1; 2; 3; 4]], p50 is 2 here and 2.5
    there. *)

val pp : Format.formatter -> summary -> unit
(** Renders as ["min/median/max (mean ± sd)"]. *)
