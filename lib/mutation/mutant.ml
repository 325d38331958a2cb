type settled = {
  against : Mutsamp_hdl.Ast.design;
  witness : Mutsamp_hdl.Sim.stimulus list option;
  structural : bool;
}

type slot = Open | Deciding of Mutex.t | Settled of settled

type t = {
  id : int;
  op : Operator.t;
  site : int;
  info : string;
  design : Mutsamp_hdl.Ast.design;
  program : Mutsamp_netlist.Program.t option Atomic.t;
  verdict : slot Atomic.t;
}

let make ~id ~op ~site ~info design =
  {
    id;
    op;
    site;
    info;
    design;
    program = Atomic.make None;
    verdict = Atomic.make Open;
  }

let to_string m = Printf.sprintf "#%d %s @%d: %s" m.id (Operator.name m.op) m.site m.info

let pp fmt m = Format.pp_print_string fmt (to_string m)
