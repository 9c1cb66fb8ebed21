//! Tier-1 integration tests for the multi-tenant dynamic kernel
//! registry: source admission (typed stage-tagged rejections, never a
//! panic), bit-identity between dynamically registered kernels and the
//! compiled-in path, per-tenant quotas (kernels, resident bytes,
//! in-flight jobs) with tenant-scoped FIFO eviction, and the snapshot's
//! per-tenant counters riding alongside an intact balance identity, and
//! the admission table: a live admitted source skips the front end,
//! anything else runs it in full.

use gpes::core::serve::MAX_KERNEL_SOURCE_BYTES;
use gpes::core::{AdmissionStage, QuotaResource, SharedCacheStats};
use gpes::kernels::{data, saxpy};
use gpes::prelude::*;
use std::sync::Arc;

/// The bundled saxpy kernel re-expressed as a serving-boundary spec —
/// same body string as `gpes::kernels::saxpy::build`.
fn saxpy_spec(n: usize, alpha: f32) -> KernelSpec {
    KernelSpec::new("saxpy")
        .input("x")
        .input("y")
        .uniform_f32("alpha", alpha)
        .output(n)
        .body("return alpha * fetch_x(idx) + fetch_y(idx);")
}

#[test]
fn registered_kernel_matches_compiled_in_bit_exactly() {
    let n = 256;
    let alpha = 2.5;
    let x = data::random_f32(n, 7, 100.0);
    let y = data::random_f32(n, 8, 100.0);

    // Compiled-in path: the bundled kernel on a direct context.
    let mut cc = ComputeContext::new(32, 32).expect("context");
    let gx = cc.upload(&x).expect("x");
    let gy = cc.upload(&y).expect("y");
    let k = saxpy::build(&mut cc, &gx, &gy, alpha).expect("kernel");
    let direct = cc.run_f32(&k).expect("run");

    // Dynamic path: the same source admitted at the serving boundary.
    let engine = Engine::builder().workers(2).build().expect("engine");
    let registered = engine
        .registry()
        .register("tenant-a", saxpy_spec(n, alpha))
        .expect("admits");
    let served = engine
        .submit(registered.job().data(x.clone()).data(y.clone()))
        .expect("submit")
        .wait()
        .expect("wait");

    assert_eq!(served, direct, "dynamic path must be bit-identical");
    assert_eq!(served, saxpy::cpu_reference(&x, &y, alpha));
    engine.shutdown();
}

#[test]
fn admission_rejects_each_stage_typed() {
    let engine = Engine::builder().build().expect("engine");
    let registry = engine.registry();

    // Signature: no output declared.
    let err = registry
        .register("t", KernelSpec::new("no_out").body("return 1.0;"))
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::AdmissionRejected {
            stage: AdmissionStage::Signature,
            ..
        }
    ));

    // Signature: reserved input name.
    let err = registry
        .register(
            "t",
            KernelSpec::new("bad_name")
                .input("gl_x")
                .output(4)
                .body("return fetch_gl_x(idx);"),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::AdmissionRejected {
            stage: AdmissionStage::Signature,
            ..
        }
    ));

    // Signature: output beyond the driver's texture limits.
    let err = registry
        .register(
            "t",
            KernelSpec::new("huge")
                .output(usize::MAX / 2)
                .body("return 1.0;"),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::AdmissionRejected {
            stage: AdmissionStage::Signature,
            ..
        }
    ));

    // Parse: body that is not GLSL.
    let err = registry
        .register(
            "t",
            KernelSpec::new("garbage").output(4).body("return ((({;"),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::AdmissionRejected {
            stage: AdmissionStage::Parse,
            ..
        }
    ));

    // Strict: an Appendix-A violation (non-constant loop bound) that a
    // permissive simulator would happily run.
    let err = registry
        .register(
            "t",
            KernelSpec::new("loopy")
                .uniform_f32("n", 4.0)
                .output(4)
                .body(
                    "float s = 0.0;\n\
                     for (int i = 0; float(i) < n; i++) { s += 1.0; }\n\
                     return s;",
                ),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::AdmissionRejected {
            stage: AdmissionStage::Strict,
            ..
        }
    ));

    // Sema: undeclared identifier.
    let err = registry
        .register(
            "t",
            KernelSpec::new("undeclared")
                .output(4)
                .body("return nonexistent;"),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::AdmissionRejected {
            stage: AdmissionStage::Sema,
            ..
        }
    ));

    // Every rejection was charged to the tenant, nothing was admitted.
    let counters = registry.tenant_counters();
    assert_eq!(counters.len(), 1);
    assert_eq!(counters[0].tenant, "t");
    assert_eq!(counters[0].admitted, 0);
    assert_eq!(counters[0].rejected, 6);
    engine.shutdown();
}

#[test]
fn oversized_or_deeply_nested_source_rejects_typed() {
    let engine = Engine::builder().build().expect("engine");
    let registry = engine.registry();
    let stage_of = |spec: KernelSpec| match registry.register("t", spec) {
        Err(ComputeError::AdmissionRejected { stage, .. }) => stage,
        other => panic!("expected a typed rejection, got {other:?}"),
    };
    let kernel = |body: String| KernelSpec::new("deep").output(4).body(body);

    // A body past the byte cap never reaches the parser.
    let long = format!(
        "return 1.0{};",
        " + 1.0".repeat(MAX_KERNEL_SOURCE_BYTES / 6)
    );
    assert_eq!(stage_of(kernel(long)), AdmissionStage::Signature);

    // Shapes that used to overflow the registering thread's stack and
    // abort the process: deep parens, deep blocks, a long operator chain.
    let parens = format!("return {}1.0{};", "(".repeat(1000), ")".repeat(1000));
    let blocks = format!("{}return 1.0;{}", "{".repeat(1000), "}".repeat(1000));
    let chain = format!("return 1.0{};", "+1.0".repeat(2000));
    for body in [parens, blocks, chain] {
        assert_eq!(stage_of(kernel(body)), AdmissionStage::Parse);
    }
    engine.shutdown();
}

#[test]
fn admission_never_links_rejected_source() {
    let engine = Engine::builder().build().expect("engine");
    let registry = engine.registry();
    let links_before = engine.cache().expect("shared").stats().links;
    let _ = registry.register("t", KernelSpec::new("bad").output(4).body("return ((;"));
    assert_eq!(
        engine.cache().expect("shared").stats().links,
        links_before,
        "rejected source must not reach the linker"
    );
    engine.shutdown();
}

#[test]
fn kernel_quota_bans_and_evicts_fifo() {
    let engine = Engine::builder().build().expect("engine");
    let registry = engine.registry();

    // A zero budget bans registration with a typed error.
    registry.set_quotas("banned", TenantQuotas::default().max_kernels(0));
    let err = registry
        .register("banned", saxpy_spec(16, 1.0))
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::QuotaExceeded {
            resource: QuotaResource::RegisteredKernels,
            ..
        }
    ));

    // A budget of 2 keeps the newest two; older registrations are
    // FIFO-evicted and counted.
    registry.set_quotas("small", TenantQuotas::default().max_kernels(2));
    for alpha in [1.0, 2.0, 3.0] {
        registry
            .register("small", saxpy_spec(16, alpha).uniform_f32("tag", alpha))
            .expect("admits");
    }
    let counters = registry.tenant_counters();
    let small = counters.iter().find(|c| c.tenant == "small").expect("row");
    assert_eq!(small.admitted, 3);
    assert_eq!(small.evicted, 1);
    engine.shutdown();
}

#[test]
fn retire_removes_registration() {
    let engine = Engine::builder().build().expect("engine");
    let registry = engine.registry();
    let k = registry.register("t", saxpy_spec(16, 1.5)).expect("admits");
    assert!(registry.retire(&k), "first retire removes");
    assert!(!registry.retire(&k), "second retire is a no-op");
    engine.shutdown();
}

#[test]
fn in_flight_quota_rejects_typed_and_balances() {
    // One worker, and a tenant allowed a single in-flight job.
    let engine = Engine::builder().workers(1).build().expect("engine");
    let registry = engine.registry();
    registry.set_quotas("greedy", TenantQuotas::default().max_in_flight(1));
    let k = registry
        .register("greedy", saxpy_spec(64, 2.0))
        .expect("admits");
    let x = vec![1.0f32; 64];
    let y = vec![2.0f32; 64];

    // Flood: with a quota of 1, at least one submission must be refused
    // with the typed quota error (timing decides exactly how many).
    let mut handles = Vec::new();
    let mut quota_rejections = 0u64;
    for _ in 0..32 {
        match engine.try_submit(k.job().data(x.clone()).data(y.clone())) {
            Ok(h) => handles.push(h),
            Err(ComputeError::QuotaExceeded {
                tenant,
                resource: QuotaResource::InFlightJobs,
            }) => {
                assert_eq!(tenant, "greedy");
                quota_rejections += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(quota_rejections > 0, "flood must trip the in-flight quota");
    for h in handles {
        h.wait().expect("accepted jobs complete");
    }

    let snapshot = engine.snapshot();
    assert!(snapshot.counters_balanced(), "identity must hold");
    assert_eq!(snapshot.rejected, quota_rejections);
    let row = snapshot
        .tenants
        .iter()
        .find(|c| c.tenant == "greedy")
        .expect("tenant row");
    assert_eq!(row.rejected, quota_rejections);
    assert_eq!(row.jobs, 32 - quota_rejections);
    assert_eq!(row.in_flight, 0, "permits all released");
    engine.shutdown();
}

#[test]
fn in_flight_permit_releases_after_wait() {
    let engine = Engine::builder().workers(1).build().expect("engine");
    let registry = engine.registry();
    registry.set_quotas("serial", TenantQuotas::default().max_in_flight(1));
    let k = registry
        .register("serial", saxpy_spec(8, 1.0))
        .expect("admits");
    // A strictly sequential caller never trips its own quota: the permit
    // is released before `wait()` returns.
    for _ in 0..5 {
        engine
            .submit(k.job().data(vec![1.0; 8]).data(vec![2.0; 8]))
            .expect("submit")
            .wait()
            .expect("wait");
    }
    engine.shutdown();
}

#[test]
fn resident_quota_rejects_oversized_and_evicts_own_oldest() {
    let engine = Engine::builder().build().expect("engine");
    let registry = engine.registry();
    // Budget: 100 floats (400 bytes).
    registry.set_quotas("res", TenantQuotas::default().max_resident_bytes(400));

    // A single resident over the whole budget is refused typed.
    let err = registry
        .register_resident("res", vec![0.0f32; 101])
        .unwrap_err();
    assert!(matches!(
        err,
        ComputeError::QuotaExceeded {
            resource: QuotaResource::ResidentBytes,
            ..
        }
    ));

    // Aggregate overflow FIFO-evicts the tenant's own oldest resident.
    let first = registry
        .register_resident("res", vec![1.0f32; 60])
        .expect("fits");
    let second = registry
        .register_resident("res", vec![2.0f32; 60])
        .expect("fits after evicting first");
    assert!(first.is_evicted(), "oldest resident evicted for room");
    assert!(!second.is_evicted(), "newest resident stays live");

    // A different tenant's residents are untouched by `res`'s pressure.
    let other = registry
        .register_resident("other", vec![3.0f32; 60])
        .expect("independent budget");
    assert!(!other.is_evicted());
    engine.shutdown();
}

#[test]
fn builder_cache_caps_apply() {
    // A shared cache capped at 1 program evicts on the second distinct
    // kernel; the default (512) would keep both.
    let engine = Engine::builder()
        .shared_cache_capacity(1)
        .build()
        .expect("engine");
    let registry = engine.registry();
    let k1 = registry.register("t", saxpy_spec(16, 1.0)).expect("k1");
    let k2 = registry
        .register(
            "t",
            KernelSpec::new("double")
                .input("x")
                .output(16)
                .body("return 2.0 * fetch_x(idx);"),
        )
        .expect("k2");
    let x = vec![1.0f32; 16];
    engine
        .submit(k1.job().data(x.clone()).data(x.clone()))
        .expect("submit")
        .wait()
        .expect("k1 runs");
    engine
        .submit(k2.job().data(x))
        .expect("submit")
        .wait()
        .expect("k2 runs");
    let stats = engine.cache().expect("shared").stats();
    assert!(
        stats.evictions >= 1,
        "cap of 1 must evict on the second program (evictions = {})",
        stats.evictions
    );
    engine.shutdown();
}

#[test]
fn builder_resident_cap_applies() {
    // Per-worker resident cap of 1: the second resident displaces the
    // first, visible as an eviction in the snapshot's resident stats.
    let engine = Engine::builder()
        .workers(1)
        .resident_cache_capacity(1)
        .build()
        .expect("engine");
    let registry = engine.registry();
    let k = registry.register("t", saxpy_spec(8, 1.0)).expect("k");
    let a = ResidentInput::new(vec![1.0f32; 8]);
    let b = ResidentInput::new(vec![2.0f32; 8]);
    let y = vec![0.0f32; 8];
    for resident in [&a, &b, &a] {
        engine
            .submit(k.job().resident(resident).data(y.clone()))
            .expect("submit")
            .wait()
            .expect("runs");
    }
    let snapshot = engine.snapshot();
    assert!(
        snapshot.residents.evictions >= 2,
        "cap of 1 must displace on each alternation (evictions = {})",
        snapshot.residents.evictions
    );
    engine.shutdown();
}

#[test]
fn registered_kernels_share_one_link_across_tenants() {
    // The fingerprint is the program-cache key: identical source from
    // different tenants links exactly once.
    let engine = Engine::builder().workers(2).build().expect("engine");
    let registry = engine.registry();
    let ka = registry.register("a", saxpy_spec(32, 2.0)).expect("a");
    let kb = registry.register("b", saxpy_spec(32, 2.0)).expect("b");
    assert_eq!(ka.fingerprint(), kb.fingerprint());
    let x = vec![1.0f32; 32];
    for k in [&ka, &kb] {
        engine
            .submit(k.job().data(x.clone()).data(x.clone()))
            .expect("submit")
            .wait()
            .expect("runs");
    }
    assert_eq!(
        engine.cache().expect("shared").stats().links,
        1,
        "identical source must link once process-wide"
    );
    engine.shutdown();
}

/// A kernel with an Appendix-A loop, so one-byte edits of it can fail
/// at each front-end stage.
const LOOP_BODY: &str = "float s = 0.0;\n\
                         for (float i = 0.0; i < 4.0; i += 1.0) { s += fetch_x(idx); }\n\
                         return s;";

fn loop_spec(body: &str) -> KernelSpec {
    KernelSpec::new("loop").input("x").output(16).body(body)
}

/// Front-end runs and live-shader hits since `before`.
fn admission_delta(engine: &Engine, before: SharedCacheStats) -> (u64, u64) {
    let after = engine.cache().expect("shared").stats();
    (
        after.admissions - before.admissions,
        after.admission_hits - before.admission_hits,
    )
}

fn cache_stats(engine: &Engine) -> SharedCacheStats {
    engine.cache().expect("shared").stats()
}

#[test]
fn recurring_source_skips_the_front_end() {
    let n = 256;
    let alpha = 1.75;
    let x = data::random_f32(n, 17, 50.0);
    let y = data::random_f32(n, 18, 50.0);
    let mut cc = ComputeContext::new(32, 32).expect("context");
    let gx = cc.upload(&x).expect("x");
    let gy = cc.upload(&y).expect("y");
    let k = saxpy::build(&mut cc, &gx, &gy, alpha).expect("kernel");
    let direct = cc.run_f32(&k).expect("run");

    let engine = Engine::builder().workers(2).build().expect("engine");
    let registry = engine.registry();
    let serve = |k: &RegisteredKernel| {
        engine
            .submit(k.job().data(x.clone()).data(y.clone()))
            .expect("submit")
            .wait()
            .expect("wait")
    };
    let before = cache_stats(&engine);
    let first = registry
        .register("t", saxpy_spec(n, alpha))
        .expect("admits");
    assert_eq!(admission_delta(&engine, before), (1, 0));
    assert_eq!(serve(&first), direct);
    registry.retire(&first);

    // The worker that served it still holds the program, and with it the
    // admitted shader: the recurring source is a hit.
    let before = cache_stats(&engine);
    let again = registry
        .register("t", saxpy_spec(n, alpha))
        .expect("admits");
    assert_eq!(admission_delta(&engine, before), (0, 1), "no front end ran");
    let served = serve(&again);
    assert_eq!(
        served.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "a hit must serve the compiled-in bits"
    );
    engine.shutdown();
}

#[test]
fn a_one_byte_edit_runs_admission_in_full() {
    let engine = Engine::builder().workers(1).build().expect("engine");
    let registry = engine.registry();
    let _base = registry
        .register("t", loop_spec(LOOP_BODY))
        .expect("admits");

    let before = cache_stats(&engine);
    let _edited = registry
        .register("t", loop_spec(&LOOP_BODY.replacen("4.0", "5.0", 1)))
        .expect("admits");
    assert_eq!(admission_delta(&engine, before), (1, 0));

    // One byte away and invalid: each rejects typed at its own stage.
    for (body, stage) in [
        (
            LOOP_BODY.replacen("(idx)", "(idx", 1),
            AdmissionStage::Parse,
        ),
        (
            LOOP_BODY.replacen("s += fetch", "i += fetch", 1),
            AdmissionStage::Strict,
        ),
        (
            LOOP_BODY.replacen("fetch_x", "fetch_y", 1),
            AdmissionStage::Sema,
        ),
    ] {
        let before = cache_stats(&engine);
        let err = registry.register("t", loop_spec(&body)).unwrap_err();
        assert!(
            matches!(err, ComputeError::AdmissionRejected { stage: s, .. } if s == stage),
            "{body:?}: {err}"
        );
        assert_eq!(admission_delta(&engine, before), (1, 0), "{body:?}");
    }
    engine.shutdown();
}

#[test]
fn rejections_are_never_memoised() {
    let engine = Engine::builder().workers(1).build().expect("engine");
    let registry = engine.registry();
    let bad = LOOP_BODY.replacen("fetch_x", "fetch_y", 1);
    let before = cache_stats(&engine);
    for _ in 0..2 {
        assert!(matches!(
            registry.register("t", loop_spec(&bad)),
            Err(ComputeError::AdmissionRejected {
                stage: AdmissionStage::Sema,
                ..
            })
        ));
    }
    assert_eq!(admission_delta(&engine, before), (2, 0));
    let counters = registry.tenant_counters();
    assert_eq!(
        counters
            .iter()
            .find(|c| c.tenant == "t")
            .expect("row")
            .rejected,
        2
    );
    engine.shutdown();
}

#[test]
fn the_admission_table_keeps_nothing_alive() {
    let engine = Engine::builder().workers(1).build().expect("engine");
    let registry = engine.registry();
    // A context configured like a worker, on the engine's shared cache.
    let mut cc = ComputeContext::new(16, 16).expect("context");
    cc.set_shared_program_cache(Arc::clone(engine.cache().expect("shared")));
    let gx = cc.upload(&data::random_f32(16, 5, 9.0)).expect("x");

    let k = registry
        .register("t", loop_spec(LOOP_BODY))
        .expect("admits");
    let built = k.spec().build(&mut cc, &[gx]).expect("build");
    cc.run_f32(&built).expect("run");
    assert!(registry.retire(&k));

    // Retired, but the context's cached program holds the shader.
    let before = cache_stats(&engine);
    let again = registry
        .register("t", loop_spec(LOOP_BODY))
        .expect("admits");
    assert_eq!(admission_delta(&engine, before), (0, 1));
    assert!(registry.retire(&again));

    // Once the context drops the program nothing holds the shader, and
    // the same bytes run the front end again.
    drop(built);
    cc.clear_program_cache();
    let before = cache_stats(&engine);
    registry
        .register("t", loop_spec(LOOP_BODY))
        .expect("admits");
    assert_eq!(admission_delta(&engine, before), (1, 0));
    engine.shutdown();
}
