(** Uniform node sampling (Section 6).

    One sample = one [randCl] (cluster with probability proportional to
    size) followed by one [randNum] (uniform member) — polylog(n) messages
    per sample, versus the O(n) an unstructured network needs.  E9 checks
    the output distribution against uniform. *)

type report = {
  node : Now_core.Node.id;
  messages : int;
  rounds : int;
}

val sample : Now_core.Engine.t -> report
(** Draw one quasi-uniform node.  Costs go to the engine ledger
    (["randcl"] plus ["app.sample"]). *)
