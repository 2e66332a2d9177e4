// Error-sink fixture: discarded Results and silent Err arms (the
// swallowed-recovery-error shape PR 4 fixed by hand).

pub fn discards(sim: &mut Sim) {
    let _ = mount.write_file("status", "RUNNING");
    store.flush(sim).ok();
}

pub fn swallows(sim: &mut Sim) {
    match probe(sim) {
        Ok(v) => apply(v),
        Err(_) => {}
    }
    match probe(sim) {
        Ok(v) => apply(v),
        Err(e) => {
            stash_locally(e);
        }
    }
}

pub fn handled_arms(sim: &mut Sim) -> u32 {
    match probe(sim) {
        Ok(v) => apply(v),
        Err(_) => {
            sim.metrics().inc("dlaas_probe_failures_total", &[]);
        }
    }
    match probe(sim) {
        Ok(v) => v,
        Err(_) => 0,
    }
}

pub fn suppressed_swallow(sim: &mut Sim) {
    match probe(sim) {
        Ok(v) => apply(v),
        // dlaas-lint: allow(swallowed-error): fixture — next tick re-probes
        Err(_) => {}
    }
}

// A string trace is not an observability plane: recording the error
// and moving on still swallows it.
pub fn traced_swallow(sim: &mut Sim, ctx: &ProcessCtx) {
    match probe(sim) {
        Ok(v) => apply(v),
        Err(e) => {
            ctx.record(sim, e);
        }
    }
}
