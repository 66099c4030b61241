//! Cross-engine architectural equivalence: for random generated programs and
//! inputs, the out-of-order simulator's committed state must be
//! bit-identical to the architectural emulator's — otherwise contract
//! violations could stem from semantic drift instead of speculation.
//!
//! Defenses and speculation sources change *when* and *what* the
//! microarchitecture does, never what commits, so the check runs across
//! every defense × {PHT, STL} × {warped, stepped cycle loop}.

use amulet::defenses::DefenseKind;
use amulet::emu::{Emulator, NullObserver};
use amulet::fuzz::{Generator, GeneratorConfig, SpecSource, STL_WINDOW};
use amulet::isa::TestInput;
use amulet::sim::{InsecureBaseline, SimConfig, Simulator};
use amulet::util::Xoshiro256;

fn check_equivalence(
    seed: u64,
    programs: usize,
    inputs_per: usize,
    defense: DefenseKind,
    source: SpecSource,
    warp: bool,
) {
    let stl = source == SpecSource::Stl;
    let gen_cfg = GeneratorConfig {
        stl_gadgets: stl,
        ..GeneratorConfig::default()
    };
    let sim_cfg = SimConfig::default()
        .with_stl_window(if stl { STL_WINDOW } else { 0 })
        .with_cycle_skip(warp);
    let mut generator = Generator::new(gen_cfg, seed);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut sim = Simulator::new(sim_cfg, defense.build());
    let case = format!("seed {seed} {} {source:?} warp {warp}", defense.name());
    for p in 0..programs {
        let program = generator.program();
        let flat = program.flatten();
        for i in 0..inputs_per {
            let input = TestInput::random(&mut rng, 1);

            let mut emu = Emulator::new(&flat, 0x4000, &input);
            emu.run(&mut NullObserver, 100_000).expect("emulator runs");

            sim.load_test(&flat, &input);
            let res = sim.run();
            assert!(
                res.exit_cycle.is_some(),
                "{case} program {p} input {i}: simulator hit the cycle cap\n{program}"
            );

            assert_eq!(
                sim.arch_regs(),
                &emu.machine.regs,
                "{case} program {p} input {i}: registers diverged\n{program}"
            );
            assert_eq!(
                sim.arch_flags(),
                emu.machine.flags,
                "{case} program {p} input {i}: flags diverged\n{program}"
            );
            assert_eq!(
                sim.sandbox_bytes(),
                emu.machine.sandbox.bytes(),
                "{case} program {p} input {i}: memory diverged\n{program}"
            );
        }
    }
}

/// Every defense × speculation source × cycle-loop mode at one seed.
fn check_matrix(seed: u64) {
    for defense in DefenseKind::ALL {
        for source in [SpecSource::Pht, SpecSource::Stl] {
            for warp in [true, false] {
                check_equivalence(seed, 40, 4, defense, source, warp);
            }
        }
    }
}

#[test]
fn random_programs_agree_across_engines_seed1() {
    check_matrix(1);
}

#[test]
fn random_programs_agree_across_engines_seed2() {
    check_matrix(20_260_610);
}

#[test]
fn random_programs_agree_across_engines_large_sandbox() {
    let cfg = GeneratorConfig {
        pages: 8,
        ..GeneratorConfig::default()
    };
    let mut generator = Generator::new(cfg, 77);
    let mut rng = Xoshiro256::seed_from_u64(78);
    let sim_cfg = SimConfig::default().with_sandbox_pages(8);
    let mut sim = Simulator::new(sim_cfg, Box::new(InsecureBaseline));
    for _ in 0..20 {
        let program = generator.program();
        let flat = program.flatten();
        let input = TestInput::random(&mut rng, 8);
        let mut emu = Emulator::new(&flat, 0x4000, &input);
        emu.run(&mut NullObserver, 100_000).expect("emulator runs");
        sim.load_test(&flat, &input);
        sim.run();
        assert_eq!(sim.arch_regs(), &emu.machine.regs, "{program}");
        assert_eq!(
            sim.sandbox_bytes(),
            emu.machine.sandbox.bytes(),
            "{program}"
        );
    }
}
