//! Schema-downgrade differential oracle.
//!
//! Table 3 of the paper restricts which sequential interfaces the
//! generated code may use; [`InterfaceSet::clamp`] models that by pushing
//! every method classified below the available set up to the next more
//! general interface. The downgrade ladder NB → MB → CP → parallel-only
//! must be *semantically invisible*: every rung changes only cost, never
//! the final state. This oracle reruns each app kernel at every rung and
//! asserts final-state equivalence against the fully-clamped end of the
//! ladder (ParallelOnly), plus structural properties of the schema maps
//! themselves (total method count conserved, monotone shift toward CP).

mod common;

use common::*;
use hem::analysis::{Analysis, InterfaceSet, Schema};
use hem::apps::{em3d, md, sor, sync};
use hem::core::{ExecMode, TieBreak};
use hem::ir::Program;

const SETS: [InterfaceSet; 3] = [InterfaceSet::Full, InterfaceSet::MbCp, InterfaceSet::CpOnly];

fn set_name(s: InterfaceSet) -> &'static str {
    match s {
        InterfaceSet::Full => "full",
        InterfaceSet::MbCp => "mbcp",
        InterfaceSet::CpOnly => "cponly",
    }
}

fn app_program(kernel: &str) -> Program {
    match kernel {
        "sor" => sor::build().program,
        "em3d" => em3d::build(4).program,
        "md" => md::build().program,
        "sync" => sync::build().program,
        other => panic!("unknown kernel {other}"),
    }
}

/// Every kernel, every interface set, both execution modes: identical
/// final object state (within float tolerance) to the ParallelOnly
/// reference — the most-clamped point of the ladder, where no sequential
/// interface is used at all.
#[test]
fn downgrade_ladder_preserves_final_state() {
    for kernel in KERNELS {
        let reference = run_app(
            kernel,
            ExecMode::ParallelOnly,
            InterfaceSet::Full,
            TieBreak::Det,
        );
        assert_clean(&format!("{kernel}/reference"), &reference);
        for set in SETS {
            for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
                let label = format!("{kernel}/{}/{mode}", set_name(set));
                let o = run_app(kernel, mode, set, TieBreak::Det);
                assert_clean(&label, &o);
                assert_state_close(&label, &o.objects, &reference.objects);
            }
        }
    }
}

/// A downgraded schedule space is still conformant: sampled seeded
/// schedules under the clamped sets match the unclamped reference.
#[test]
fn downgrade_ladder_under_sampled_schedules() {
    let mut base = 0x5EED_5EED_5EED_5EEDu64;
    for s in seeds() {
        base ^= s;
        splitmix64(&mut base);
    }
    for kernel in KERNELS {
        let reference = run_app(
            kernel,
            ExecMode::ParallelOnly,
            InterfaceSet::Full,
            TieBreak::Det,
        );
        for set in [InterfaceSet::MbCp, InterfaceSet::CpOnly] {
            for _ in 0..8 {
                let seed = splitmix64(&mut base);
                let label = format!("{kernel}/{}/seeded({seed})", set_name(set));
                let o = run_app(kernel, ExecMode::Hybrid, set, TieBreak::Seeded(seed));
                assert_clean(&label, &o);
                assert_state_close(
                    &format!("{label} [{}]", replay_help(&label, &o.tie_choices)),
                    &o.objects,
                    &reference.objects,
                );
            }
        }
    }
}

/// The schema histogram always sums to the program's method count, at
/// every rung of the ladder, for every app kernel.
#[test]
fn histogram_sums_to_method_count() {
    for kernel in KERNELS {
        let program = app_program(kernel);
        let analysis = Analysis::analyze(&program);
        for set in SETS {
            let m = analysis.schemas(set);
            let (nb, mb, cp) = m.histogram();
            assert_eq!(
                nb + mb + cp,
                program.methods.len(),
                "{kernel}/{}: histogram does not cover every method",
                set_name(set)
            );
        }
    }
}

/// Clamping is monotone: restricting the interface set never makes any
/// method's schema *less* general, and the histogram mass only moves
/// toward CP.
#[test]
fn clamp_is_monotone_per_method() {
    for kernel in KERNELS {
        let program = app_program(kernel);
        let analysis = Analysis::analyze(&program);
        let full = analysis.schemas(InterfaceSet::Full);
        let mbcp = analysis.schemas(InterfaceSet::MbCp);
        let cponly = analysis.schemas(InterfaceSet::CpOnly);
        for i in 0..program.methods.len() {
            assert!(
                full.seq[i] <= mbcp.seq[i] && mbcp.seq[i] <= cponly.seq[i],
                "{kernel}: method {i} got less general under clamping \
                 ({:?} / {:?} / {:?})",
                full.seq[i],
                mbcp.seq[i],
                cponly.seq[i]
            );
            assert_eq!(cponly.seq[i], Schema::ContPassing);
            assert_ne!(mbcp.seq[i], Schema::NonBlocking);
        }
        let (nb_f, _, cp_f) = full.histogram();
        let (nb_m, _, cp_m) = mbcp.histogram();
        let (nb_c, _, cp_c) = cponly.histogram();
        assert_eq!(nb_m, 0, "{kernel}: MbCp must eliminate NB");
        assert_eq!(nb_c, 0, "{kernel}: CpOnly must eliminate NB");
        assert!(cp_f <= cp_m && cp_m <= cp_c, "{kernel}: CP mass must grow");
        assert!(nb_f >= nb_m, "{kernel}: NB mass must shrink");
        assert_eq!(cp_c, program.methods.len(), "{kernel}: CpOnly is all-CP");
    }
}

/// Clamp is idempotent and respects the generality order on the full
/// Schema × InterfaceSet product.
#[test]
fn clamp_algebra() {
    let all = [Schema::NonBlocking, Schema::MayBlock, Schema::ContPassing];
    for set in SETS {
        for s in all {
            let once = set.clamp(s);
            assert!(once >= s, "clamp must not lose generality");
            assert_eq!(set.clamp(once), once, "clamp must be idempotent");
        }
    }
    // Tighter sets dominate pointwise.
    for s in all {
        assert!(InterfaceSet::Full.clamp(s) <= InterfaceSet::MbCp.clamp(s));
        assert!(InterfaceSet::MbCp.clamp(s) <= InterfaceSet::CpOnly.clamp(s));
    }
}
