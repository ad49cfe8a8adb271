(** Heavy-edge-matching graph coarsening.

    Builds a hierarchy of progressively smaller operators
    [A_l = diag(diag_l) − W_l] from a fine operator given in the same
    (off-diagonal weights, diagonal vector) form the fused
    [Csr.lap_mv] kernel consumes — the hard-criterion system
    [diag(deg′) − W₂₂] and plain graph Laplacians both fit.

    Each level greedily matches every vertex with its heaviest
    unmatched neighbour (ascending vertex order, smallest index on
    ties — fully deterministic), aggregates matched pairs, lets the
    remaining singletons — an independent set that can dominate
    hub-shaped graphs and stall pure pair matching — adopt into their
    heaviest neighbour's aggregate (size-capped), and forms the
    Galerkin coarse operator [PᵀA P] for the piecewise-constant
    aggregation [P].  In (W, diag) form: cross-aggregate weights are
    summed into [W_c], intra-aggregate edges are absorbed into the
    diagonal ([diag_c(c) = Σ diag_i − 2·Σ intra w_uv]), which conserves
    the total mass [1ᵀA1] exactly per level and keeps every coarse
    operator symmetric; PSD is inherited from the fine operator because
    [xᵀ(PᵀAP)x = (Px)ᵀA(Px) ≥ 0].

    The coarse matrix is written straight into CSR, one aggregate's row
    at a time ({!Csr.of_sorted_rows}).

    [W] must be symmetric — each coarse row sums both triangles of its
    members' rows — and hold non-negative off-diagonal weights only
    (diagonal entries are ignored by the matching and the Galerkin
    sums). *)

type t

val build :
  ?coarse_cutoff:int ->
  ?max_levels:int ->
  ?min_shrink:float ->
  w:Csr.t ->
  diag:Linalg.Vec.t ->
  unit ->
  t
(** [build ~w ~diag ()] coarsens until the level size reaches
    [coarse_cutoff] (default 64), [max_levels] levels exist (default
    25), or a level shrinks by less than the [min_shrink] factor
    (default 0.95 — a stagnation guard for edge-free graphs, whose
    matching is empty).  The finest level is stored as level 0.
    Counters: [sparse.coarsen.levels], [sparse.coarsen.matched_pairs];
    span: [coarsen.build].  Raises [Invalid_argument] on dimension
    mismatch or out-of-range parameters. *)

val depth : t -> int
(** Number of levels, finest included ([>= 1]). *)

val level : t -> int -> Csr.t * Linalg.Vec.t
(** [(W_l, diag_l)] of level [l] ([0] = finest). *)

val level_size : t -> int -> int
val map_at : t -> int -> int array
(** [map_at t l] maps each level-[l] vertex to its level-[l+1]
    aggregate.  Valid for [l < depth t - 1]. *)

val apply : t -> int -> Linalg.Vec.t -> Linalg.Vec.t
(** [apply t l x = A_l x] via the fused Laplacian kernel. *)

val restrict : t -> int -> Linalg.Vec.t -> Linalg.Vec.t
(** [restrict t l x = Pᵀx]: sum fine entries into their aggregates
    (level [l] → [l+1]). *)

val prolong : t -> int -> Linalg.Vec.t -> Linalg.Vec.t
(** [prolong t l xc = P xc]: copy each aggregate's value to its fine
    vertices (level [l+1] → [l]). *)
