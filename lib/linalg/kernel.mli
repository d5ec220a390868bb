(** The batched structure-of-arrays replay engine.

    {!Sparse.refactor} replays a recorded elimination program one point at
    a time, on flat float arrays, then materialises a boxed factor that
    {!Sparse.solve} immediately unboxes again.  {!Batch} replays the
    {e same} program, plus the forward/back substitution, for a whole set
    of points at once on flat planes: no boxed factor, no stored
    multipliers, and no heap allocation per batch once a workspace has
    grown. *)

type program = {
  n : int;  (** matrix dimension *)
  nslots : int;  (** workspace slots, structural fill included *)
  sign : int;  (** permutation sign of the pivot orders *)
  threshold : float;  (** threshold-pivoting floor parameter *)
  coo_slot : int array;  (** values index -> slot (the scatter map) *)
  pivot_rows : int array;  (** step -> original row *)
  pivot_cols : int array;  (** step -> original column *)
  pivot_slot : int array;  (** step -> slot of the pivot *)
  u_cols : int array array;  (** step -> original column per U entry *)
  u_slots : int array array;  (** step -> slot per U entry *)
  elim_row : int array array;  (** step -> row id per eliminated row *)
  elim_a_slot : int array array;  (** step -> slot of (row, pivot col) *)
  elim_upd : int array array array;
      (** step -> target -> destination slot per U entry (aligned with
          [u_slots]) *)
  lower_len : int;  (** multipliers the boxed path would store *)
  fill : int;  (** structural fill-in *)
}
(** The recorded elimination program — the value-independent half of a
    factorisation, shared with {!Sparse.pattern}
    (see {!Sparse.pattern_program}). *)

val domain_index : unit -> int
(** A small dense index for the calling domain, assigned on first use
    (re-exported as {!Symref_core.Domain_pool.worker_index}; pool workers
    touch theirs at spawn so long-lived domains get the low indices) — the
    key of the per-domain {!Batch.Pool}. *)

(** {1 The batched engine} *)

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A flat [Float64] plane holding one value per (slot, point): slot-major,
    index [slot * stride + point] with [stride] the batch's point count
    padded to the tile width ({!Batch.stride}), so each instruction's
    operand column is contiguous across the points of a batch and tiles
    never straddle columns. *)

(** Replays the elimination program {e once per batch}: the program —
    pre-flattened into int32 instruction streams — is decoded instruction
    by instruction, and every instruction runs an inner contiguous loop
    over a tile of the batch's points — amortising the decode traffic a
    per-point replay pays at every point, which dominates on long
    programs with little float work per step (the rc-ladder shape).  The
    loops themselves live in a C stub (batch_stub.c) compiled with
    vectorisation on and FP contraction off, so the float work runs as
    packed IEEE arithmetic while every per-point rounding stays exactly
    the boxed OCaml path's.

    Bit-identity: batching reorders float operations only across points
    (whose data never interact); within one point the dataflow is
    operation-for-operation the boxed {!Sparse.refactor} →
    {!Sparse.det} → {!Sparse.solve} chain, so per-point results are
    bit-for-bit identical.

    Eject semantics: a point that trips the threshold floor (or goes
    non-finite) — exactly where {!Sparse.refactor} returns [None] — is
    {e marked} ({!Batch.ejected}) and keeps computing
    garbage confined to its own plane column while the batch proceeds; the
    caller re-evaluates marked points on the boxed path.  The engine itself
    fires no fault hooks and touches no counters — the caller owns both, so
    it can interleave [Inject.sparse_singular] fires and per-point
    fallbacks in point order, reproducing a per-point sweep's fire
    sequence exactly ({!Symref_mna.Nodal.eval_batch} is the reference
    consumer, and the accounting contract lives with the
    [kernel.batch_points]/[kernel.batch_ejects] counters). *)
module Batch : sig
  type t
  (** A growable batch workspace for one program: value/RHS/solution planes
      plus per-point scratch (pivot, row-max, multiplier, determinant
      accumulator, eject marks). *)

  val create : program -> t
  (** Allocate an empty batch workspace (counted under
      [kernel.workspaces]); capacity grows on first use. *)

  val program : t -> program

  val begin_batch : t -> int -> unit
  (** [begin_batch b count] sizes the planes for [count] points (growing
      capacity if needed — the steady state allocates nothing) and zeroes
      the value and RHS planes.  Fixes {!stride} for this batch. *)

  val count : t -> int
  (** Points in the current batch. *)

  val stride : t -> int
  (** The plane stride for the current batch: {!count} padded up to the
      engine's tile width (a multiple of 8).  Lanes at
      [count <= q < stride] are padding — zero-scattered, computed as
      garbage, never read back. *)

  val matrix_re : t -> plane
  val matrix_im : t -> plane
  (** Raw value planes for the scatter, under the same direct-store
      contract: write between {!begin_batch} and {!run} at
      [slot * stride + point], directly (without flambda a cross-module
      setter call would box its float arguments). *)

  val rhs_re : t -> plane
  val rhs_im : t -> plane
  (** Raw right-hand-side planes, index [row * stride + point]. *)

  val point_re : t -> float array
  val point_im : t -> float array
  (** Per-point scratch of length >= [count] for the batch's evaluation
      points, so scatter loops read unboxed floats instead of chasing
      [Complex.t] records.  Purely a caller convenience: the engine never
      reads them. *)

  val run : t -> unit
  (** Batched elimination and back substitution (one [lu.batch] trace span
      when tracing is on).  Never fails: threshold/non-finite bails only
      mark {!ejected}.  Allocation-free in the steady state. *)

  val ejected : t -> int -> bool
  (** Whether the point left the batch (threshold floor or non-finite
      pivot at some step) — its column is garbage; re-evaluate it on the
      boxed path. *)

  val det_is_zero : t -> int -> bool

  val det : t -> int -> Symref_numeric.Extcomplex.t
  (** Determinant of a non-ejected point, bit-identical to
      [Sparse.det (Sparse.refactor ...)]. *)

  val solution_re : t -> plane
  val solution_im : t -> plane
  (** Solution planes, index [column * stride + point], valid until the
      next {!begin_batch}. *)

  (** A per-domain batch pool for one program: each domain lazily gets its
      own workspace, indexed by {!domain_index}.  Checkout fails (→ the
      caller takes the bit-identical boxed per-point path) when the index
      exceeds the table cap or the domain's workspace is busy. *)
  module Pool : sig
    type batch = t
    type t

    val create : program -> t
    val checkout : t -> batch option
    val release : batch -> unit
  end
end
