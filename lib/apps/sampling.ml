module Engine = Now_core.Engine
module Ct = Now_core.Cluster_table
module Cost = Now_core.Cost_model

type report = {
  node : Now_core.Node.id;
  messages : int;
  rounds : int;
}

let sample engine =
  let cid, walk_report = Engine.rand_cl engine () in
  let tbl = Engine.table engine in
  let size = Ct.size tbl cid in
  (* randNum picks the member; charge it explicitly. *)
  let pick_messages = Cost.randnum_messages ~size in
  Metrics.Ledger.charge (Engine.ledger engine) ~label:"app.sample"
    ~messages:pick_messages ~rounds:Cost.randnum_rounds;
  let node = Engine.uniform_member engine cid in
  {
    node;
    messages = walk_report.Engine.messages + pick_messages;
    rounds = walk_report.Engine.rounds + Cost.randnum_rounds;
  }

