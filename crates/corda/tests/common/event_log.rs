// A recording monitor, shared by the engine's unit tests and the
// integration suites through `include!`.  The including scope provides
// `Configuration`, `Decision`, `FaultEvent`, `Monitor`, `MoveRecord`,
// `RobotId` and `StepReport`.

/// One monitor hook call with its arguments (the configuration aside).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
enum Hook {
    Look { robot: RobotId, decision: Decision },
    Move(MoveRecord),
    Step(StepReport),
    Fault(FaultEvent),
}

/// A monitor that logs every hook in call order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct EventLog {
    hooks: Vec<Hook>,
}

impl Monitor for EventLog {
    fn on_look(&mut self, robot: RobotId, decision: Decision, _config: &Configuration) {
        self.hooks.push(Hook::Look { robot, decision });
    }

    fn on_move(&mut self, record: &MoveRecord, _after: &Configuration) {
        self.hooks.push(Hook::Move(*record));
    }

    fn on_step(&mut self, report: &StepReport, _config: &Configuration) {
        self.hooks.push(Hook::Step(report.clone()));
    }

    fn on_fault(&mut self, event: &FaultEvent, _config: &Configuration) {
        self.hooks.push(Hook::Fault(*event));
    }
}
