(** Phase-King Byzantine agreement (Berman–Garay–Perry style).

    Synchronous Byzantine agreement over integer values for a committee of
    [n] nodes tolerating [t < n/4] Byzantine members, in [2(t+1) + 1]
    rounds and [O(t n^2)] messages.  Each phase has two rounds: an
    all-to-all value exchange, then a broadcast by that phase's king; a
    node keeps its majority value only when it saw it more than [n/2 + t]
    times, otherwise it adopts the king's.

    The paper's initialisation uses an off-the-shelf agreement ([19],
    King–Saia, resilience t < n/3 at ~O(n sqrt n) messages); Phase-King is
    our executable stand-in (see DESIGN.md). *)

type outcome = {
  decisions : (int * int) list;  (** (honest node id, decided value) *)
  rounds : int;
  messages : int;
}

val run :
  ?ledger:Metrics.Ledger.t ->
  committee:int list ->
  input:(int -> int) ->
  byzantine:(int -> Byz_behavior.t option) ->
  unit ->
  outcome
(** Build a private synchronous network for [committee], run the protocol
    to completion, and report honest decisions plus measured cost.
    [input id] is a node's initial value; [byzantine id] returns [Some
    strategy] for corrupted members.  The number of phases is
    [floor ((n-1)/4) + 1] — the maximum tolerable [t] plus one. *)

val max_faulty : int -> int
(** [max_faulty n] = largest [t] with [4t < n]. *)
