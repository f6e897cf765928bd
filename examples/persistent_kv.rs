//! A persistent key-value store over the simulated NVM, with a crash in
//! the middle and recovery afterwards.
//!
//! Demonstrates the library's core promise: under Proteus (or any other
//! failure-safe scheme) every durable transaction is all-or-nothing, so
//! after a crash the store recovers to a transaction boundary.
//!
//! ```sh
//! cargo run --release --example persistent_kv
//! ```

use proteus_core::pmem::WordImage;
use proteus_core::program::Program;
use proteus_sim::System;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::{Addr, ThreadId};
use proteus_workloads::hashmap::HashMapStruct;
use proteus_workloads::mem::{durable_transaction, DirectMem, NodeAlloc};
use proteus_workloads::GeneratedWorkload;

/// Builds the store with 50 initial keys; deterministic, so it can be
/// replayed to reconstruct the machine's initial image.
fn build_store(image: &mut WordImage, alloc: &mut NodeAlloc) -> HashMapStruct {
    let mut m = DirectMem::new(image);
    let kv = HashMapStruct::create(&mut m, alloc, 64);
    for k in 0..50 {
        kv.insert(&mut m, alloc, k, k * 100);
    }
    kv
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut image = WordImage::new();
    let mut alloc = NodeAlloc::new(Addr::new(0x1000_0000), 1 << 22);
    let kv = build_store(&mut image, &mut alloc);
    let initial = image.clone();

    // A program of 20 durable put transactions: `durable_transaction`
    // emits each put once and reads its undo hint off that emission.
    let mut program = Program::new(ThreadId::new(0));
    for k in 0..20u64 {
        durable_transaction(&mut image, &mut program, |mem| {
            kv.insert(mem, &mut alloc, k, 7000 + k);
        });
    }

    let workload = GeneratedWorkload {
        name: "persistent-kv".into(),
        programs: vec![program],
        initial_image: initial,
        sharing: None,
    };

    // Run half way, then pull the plug.
    let config = SystemConfig::skylake_like().with_num_cores(1);
    let total = {
        let mut probe = System::new(&config, LoggingSchemeKind::Proteus, &workload)?;
        probe.run()?.total_cycles
    };
    let mut machine = System::new(&config, LoggingSchemeKind::Proteus, &workload)?;
    machine.run_until(total / 2);
    println!("crashed at cycle {} of {}", machine.now(), total);

    // Recover and inspect.
    let (mut recovered, report) = machine.crash_and_recover()?;
    for (thread, outcome) in &report.outcomes {
        println!("recovery on {thread}: {outcome:?}");
    }

    // Every key is either its pre-run value or its committed new value —
    // never a torn mix.
    let mut committed_puts = 0;
    let mut view = DirectMem::new(&mut recovered);
    for k in 0..20u64 {
        let v = kv.get(&mut view, k).expect("key existed before the run");
        assert!(v == k * 100 || v == 7000 + k, "torn value for key {k}: {v}");
        if v == 7000 + k {
            committed_puts += 1;
        }
    }
    println!(
        "{committed_puts}/20 puts had committed before the crash; \
         the rest rolled back cleanly"
    );
    Ok(())
}
