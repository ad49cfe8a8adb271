(** Connectivity of weighted graphs.

    Proposition II.2 assumes [W] represents a connected graph; the soft
    solver warns (and the tests check) using these utilities.  An edge
    exists when its weight exceeds [threshold] (default 0: any positive
    weight connects). *)

val components : ?threshold:float -> Weighted_graph.t -> int array
(** Component label per vertex, labels [0 … c−1] in order of first
    appearance, by union-find over the edges in {!Weighted_graph.iter_edges}'
    order; the scan stops once n − 1 unions have joined every vertex, so
    a connected dense graph costs O(n) edges, not n²/2.  The labels
    depend on the partition alone.  At the default threshold
    the array is computed once per graph and shared by every later
    call (so a solve on a graph already solved on skips the pass);
    callers must not modify it. *)

val count_components : ?threshold:float -> Weighted_graph.t -> int
val is_connected : ?threshold:float -> Weighted_graph.t -> bool

val bfs_distances : ?threshold:float -> Weighted_graph.t -> int -> int array
(** Hop distances from a source; [-1] for unreachable vertices.  Raises
    [Invalid_argument] on a bad source. *)
