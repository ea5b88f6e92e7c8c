//! The distributed logic under true concurrency: the real engine runs
//! the stencil with real per-node thread pools and channel-borne
//! cross-node messages, so arrival order is genuinely racy — and the
//! result must still match the sequential reference bit for bit.

use ca_stencil::{build_base, build_ca, jacobi_reference, max_abs_diff, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{run, RunConfig, UnfoldedDag};

fn cfg(steps: usize) -> StencilConfig {
    StencilConfig::new(Problem::scrambled(24, 321), 4, 9, ProcessGrid::new(2, 2)).with_steps(steps)
}

#[test]
fn base_matches_reference_under_races() {
    for trial in 0..3 {
        let c = cfg(1);
        let b = build_base(&c, true);
        let r = run(&b.program, &RunConfig::multi_process(4, 2));
        assert_eq!(r.tasks_executed, 36 * 10);
        let want = jacobi_reference(&c.problem, 9);
        assert_eq!(
            max_abs_diff(&b.store.unwrap().gather(), &want),
            0.0,
            "trial {trial}"
        );
    }
}

#[test]
fn ca_matches_reference_under_races() {
    for steps in [2usize, 3] {
        let c = cfg(steps);
        let b = build_ca(&c, true);
        run(&b.program, &RunConfig::multi_process(4, 2));
        let want = jacobi_reference(&c.problem, 9);
        assert_eq!(
            max_abs_diff(&b.store.unwrap().gather(), &want),
            0.0,
            "steps {steps}"
        );
    }
}

#[test]
fn cross_node_flow_count_matches_simulator() {
    let c = cfg(3);
    let mp = run(&build_ca(&c, true).program, &RunConfig::multi_process(4, 2));
    let sim = run(
        &build_ca(&c, false).program,
        &RunConfig::simulated(MachineProfile::nacl(), 4),
    );
    assert_eq!(mp.remote_messages(), sim.remote_messages());
}

/// The real engine's flow accounting is the same on one node and on
/// several: every DAG edge is delivered exactly once, either locally or
/// through a comm thread, and only the latter count as messages.
#[test]
fn flow_accounting_matches_dag_edges_on_every_node_count() {
    let c = cfg(1);
    let dag = UnfoldedDag::enumerate(&build_base(&c, false).program);
    let edges = dag.in_degrees().iter().sum::<usize>() as u64;
    for rc in [RunConfig::shared_memory(3), RunConfig::multi_process(4, 2)] {
        let r = run(&build_base(&c, true).program, &rc);
        assert_eq!(r.flows_delivered(), Some(edges), "{} node(s)", rc.nodes);
        assert_eq!(
            r.remote_messages(),
            r.counter(obs::names::MESSAGES_SENT),
            "{} node(s)",
            rc.nodes
        );
        if rc.nodes == 1 {
            assert_eq!(r.remote_messages(), 0);
        } else {
            assert!(r.remote_messages() > 0, "a 2x2 grid must communicate");
        }
    }
}
