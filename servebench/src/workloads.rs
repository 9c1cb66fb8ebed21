//! The workloads. Each one makes its requests from the seed, submits them
//! through the public `Engine` API, checks every result, and replays a
//! request on a direct context with the same public calls a worker makes.

use crate::trace::{Layer, Tracer};
use gpes_core::{
    AnyGpuArray, Bindings, ComputeContext, ComputeError, ContextStats, Engine, GpuArray, Job,
    JobHandle, KernelRegistry, KernelSpec, PackBias, PipelineJob, PipelineResult, PipelineSpec,
    Readback, RegisteredKernel, ResidentInput, ScalarType, ServedPipeline, SourceSeed, TensorData,
};
use gpes_gles2::{Dispatch, ExecMode};
use gpes_kernels::cnn::{self, CnnOutput, Precision};
use gpes_kernels::data;
use gpes_perf::{readback_bytes_for, upload_bytes_for};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Engine workers: one per core of the 2-core recording host.
pub const WORKERS: usize = 2;
/// Screen size of every context (the engine's default).
pub const SCREEN: u32 = 256;
/// Shader execution mode pinned on the engine and on every replay context.
pub const EXEC: ExecMode = ExecMode::Spmd { lanes: 8 };
/// Per-draw dispatch pinned on the engine and on every replay context.
pub const DISPATCH: Dispatch = Dispatch::Serial;

/// One workload: request construction, submission, checking and replay.
pub trait Workload {
    /// What the engine's handle resolves to.
    type Served: Send + 'static;
    /// The form in which served and replayed results are checked.
    type Out;

    /// Requests the closed-loop client keeps outstanding.
    fn in_flight(&self) -> usize;
    /// Requests per warm-up wave.
    fn wave(&self) -> u64;
    /// Requests in the served probe wave and in each replay pass.
    fn replays(&self) -> u64;
    /// Per-engine set-up (residents, registry handle).
    fn attach(&mut self, engine: &Engine) -> Result<(), ComputeError>;
    /// Whether a warm-up wave with these counter deltas shows steady state.
    fn steady(&self, wave: &ContextStats, links: u64) -> bool {
        links == 0 && wave.gl_objects_created() == 0
    }
    /// Starts request `id`.
    fn start(&mut self, engine: &Engine, id: u64) -> Result<JobHandle<Self::Served>, ComputeError>;
    /// Ends request `id` once its result is in hand (still inside its latency).
    fn end(&mut self, _id: u64) {}
    fn output(served: Self::Served) -> Self::Out;
    /// Whether `out` is the right answer to request `id`. A workload whose
    /// reference is costly may defer the comparison to [`Workload::finish_checks`].
    fn check(&mut self, id: u64, out: Self::Out) -> bool;
    /// Runs the deferred comparisons; returns how many failed.
    fn finish_checks(&mut self) -> Result<u64, ComputeError> {
        Ok(0)
    }
    /// Prepares a fresh replay context the way a worker's first requests would.
    fn replay_setup(&mut self, _cc: &mut ComputeContext) -> Result<(), ComputeError> {
        Ok(())
    }
    /// Replays request `id` on `cc`, timing each layer call into `tr`.
    fn replay(
        &mut self,
        cc: &mut ComputeContext,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<Self::Out, ComputeError>;
}

/// A context configured like an engine worker's, minus the shared cache.
pub fn direct_context() -> Result<ComputeContext, ComputeError> {
    let mut cc = ComputeContext::new(SCREEN, SCREEN)?;
    cc.set_dispatch(DISPATCH);
    cc.set_exec_mode(EXEC);
    Ok(cc)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A 64-bit digest of the exact bits of `values`.
fn digest(values: &[f32]) -> u64 {
    let mut hasher = DefaultHasher::new();
    values.len().hash(&mut hasher);
    for v in values {
        v.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

fn into_f32(t: TensorData) -> Vec<f32> {
    match t {
        TensorData::F32(v) => v,
        _ => Vec::new(),
    }
}

fn upload_f32(
    cc: &mut ComputeContext,
    data: &[f32],
    id: u64,
    tr: &mut Tracer,
) -> Result<AnyGpuArray, ComputeError> {
    let array = tr.span(id, Layer::Upload, || cc.upload(data))?.erase();
    tr.upload_bytes += upload_bytes_for(ScalarType::F32, array.layout().texel_count());
    Ok(array)
}

/// Builds a spec's kernel, shades it into a render target, recycles the
/// inputs and reads the result back: the worker's `run_job` sequence.
fn run_spec(
    cc: &mut ComputeContext,
    spec: &KernelSpec,
    inputs: Vec<AnyGpuArray>,
    id: u64,
    tr: &mut Tracer,
) -> Result<Vec<f32>, ComputeError> {
    let shaded = tr
        .span(id, Layer::Build, || spec.build_any(cc, &inputs))
        .and_then(|k| {
            tr.span(id, Layer::Shade, || {
                cc.run_to_array_any_with(&k, &Bindings::new())
            })
        });
    for array in inputs {
        cc.recycle_any(array);
    }
    let out = shaded?;
    let host = tr.span(id, Layer::Readback, || {
        cc.read_array_any(&out, Readback::DirectFbo)
    });
    tr.readback_bytes += readback_bytes_for(out.layout().texel_count());
    cc.recycle_any(out);
    host.map(into_f32)
}

// ---- kernel-hot ------------------------------------------------------------

/// Elements per kernel-hot job.
const HOT_N: usize = 4096;

/// The a10 `hot3` mix: shading is ~99% of a job, so a raster or VM speed-up
/// shows here and nowhere else.
pub struct KernelHot {
    specs: Vec<Arc<KernelSpec>>,
    x: Arc<Vec<f32>>,
    y: Arc<Vec<f32>>,
    /// Direct serial dispatch of each spec, in mix order.
    pub expected: Vec<Vec<f32>>,
}

impl KernelHot {
    pub fn new(seed: u64) -> Result<KernelHot, ComputeError> {
        let n = HOT_N;
        let specs = vec![
            Arc::new(
                KernelSpec::new("saxpy")
                    .input("x")
                    .input("y")
                    .uniform_f32("alpha", 2.0)
                    .output(n)
                    .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
            ),
            Arc::new(
                KernelSpec::new("blur3")
                    .input("x")
                    .input("y")
                    .uniform_f32("last", n as f32 - 1.0)
                    .output(n)
                    .body(
                        "float a = fetch_x(max(idx - 1.0, 0.0));\n\
                         float b = fetch_x(idx);\n\
                         float c = fetch_x(min(idx + 1.0, last));\n\
                         return (a + b + c) / 3.0 + fetch_y(idx);",
                    ),
            ),
            Arc::new(
                KernelSpec::new("sq_diff")
                    .input("x")
                    .input("y")
                    .output(n)
                    .body("float d = fetch_x(idx) - fetch_y(idx); return d * d;"),
            ),
        ];
        let x = Arc::new(data::random_f32(n, seed, 25.0));
        let y = Arc::new(data::random_f32(n, seed.wrapping_add(1), 25.0));
        let mut cc = direct_context()?;
        let gx = cc.upload(x.as_slice())?;
        let gy = cc.upload(y.as_slice())?;
        let mut expected = Vec::new();
        for spec in &specs {
            let k = spec.build(&mut cc, &[gx, gy])?;
            let out: GpuArray<f32> = cc.run_to_array_with(&k, &Bindings::new())?;
            expected.push(cc.read_array(&out, Readback::DirectFbo)?);
            cc.recycle_array(out);
        }
        Ok(KernelHot {
            specs,
            x,
            y,
            expected,
        })
    }

    fn mix(&self, id: u64) -> usize {
        (id % self.specs.len() as u64) as usize
    }
}

impl Workload for KernelHot {
    type Served = Vec<f32>;
    type Out = Vec<f32>;

    fn in_flight(&self) -> usize {
        2
    }

    fn wave(&self) -> u64 {
        (WORKERS * self.specs.len()) as u64
    }

    fn replays(&self) -> u64 {
        96
    }

    fn attach(&mut self, _engine: &Engine) -> Result<(), ComputeError> {
        Ok(())
    }

    fn start(&mut self, engine: &Engine, id: u64) -> Result<JobHandle<Vec<f32>>, ComputeError> {
        let spec = &self.specs[self.mix(id)];
        engine.submit(Job::new(spec).data_shared(&self.x).data_shared(&self.y))
    }

    fn output(served: Vec<f32>) -> Vec<f32> {
        served
    }

    fn check(&mut self, id: u64, out: Vec<f32>) -> bool {
        same_bits(&out, &self.expected[self.mix(id)])
    }

    fn replay(
        &mut self,
        cc: &mut ComputeContext,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<Vec<f32>, ComputeError> {
        let x = upload_f32(cc, &self.x, id, tr)?;
        let y = upload_f32(cc, &self.y, id, tr)?;
        run_spec(cc, &self.specs[self.mix(id)], vec![x, y], id, tr)
    }
}

// ---- cnn-pipeline ----------------------------------------------------------

/// Distinct images the cnn-pipeline requests cycle through.
const CNN_IMAGES: usize = 8;

/// The a16 quantized CNN served as a `PipelineJob`: 7 small draws per
/// request, byte codecs, resident weights and the per-worker pipeline cache,
/// at ~1000 requests/s, so per-draw and per-request fixed costs dominate.
pub struct CnnPipeline {
    spec: Arc<PipelineSpec>,
    weights: [TensorData; 3],
    images: Vec<Arc<TensorData>>,
    /// Host reference per image (`cnn::cpu_reference`).
    pub expected: Vec<CnnOutput>,
    residents: Vec<ResidentInput>,
    /// The replay context's pipeline cache, keyed like a worker's.
    built: HashMap<u64, ServedPipeline>,
    weight_arrays: Vec<AnyGpuArray>,
}

impl CnnPipeline {
    pub fn new(seed: u64) -> Result<CnnPipeline, ComputeError> {
        let weights = cnn::CnnWeights::demo(seed);
        let side = cnn::IMG_SIDE as usize;
        let pixels: Vec<Vec<u8>> = (0..CNN_IMAGES as u64)
            .map(|i| data::random_u8(side * side, seed.wrapping_add(100 + i), 255))
            .collect();
        let expected = pixels
            .iter()
            .map(|img| cnn::cpu_reference(img, &weights, PackBias::default()))
            .collect();
        let images = pixels
            .iter()
            .map(|img| Arc::new(cnn::img_tensor(Precision::Quantized, img)))
            .collect();
        let (w1, w2, wd) = cnn::weight_tensors(Precision::Quantized, &weights);
        Ok(CnnPipeline {
            spec: Arc::new(cnn::pipeline_spec(Precision::Quantized)?),
            weights: [w1, w2, wd],
            images,
            expected,
            residents: Vec::new(),
            built: HashMap::new(),
            weight_arrays: Vec::new(),
        })
    }

    fn image(&self, id: u64) -> usize {
        (id % CNN_IMAGES as u64) as usize
    }
}

fn cnn_output(scores: Option<&TensorData>, top: Option<&TensorData>) -> CnnOutput {
    CnnOutput {
        scores: scores.and_then(|t| t.as_i16()).unwrap_or(&[]).to_vec(),
        top: top
            .and_then(|t| t.as_i16())
            .and_then(|t| t.first().copied())
            .unwrap_or(i16::MIN),
    }
}

impl Workload for CnnPipeline {
    type Served = PipelineResult;
    type Out = CnnOutput;

    fn in_flight(&self) -> usize {
        2
    }

    fn wave(&self) -> u64 {
        CNN_IMAGES as u64
    }

    fn replays(&self) -> u64 {
        800
    }

    fn attach(&mut self, _engine: &Engine) -> Result<(), ComputeError> {
        self.residents = self
            .weights
            .iter()
            .map(|w| ResidentInput::new_tensor(w.clone()))
            .collect();
        Ok(())
    }

    fn start(
        &mut self,
        engine: &Engine,
        id: u64,
    ) -> Result<JobHandle<PipelineResult>, ComputeError> {
        let mut job =
            PipelineJob::new(&self.spec).source_tensor_shared(&self.images[self.image(id)]);
        for resident in &self.residents {
            job = job.source_resident(resident);
        }
        engine.submit_pipeline(job.read("scores").read("top"))
    }

    fn output(served: PipelineResult) -> CnnOutput {
        cnn_output(served.tensor("scores"), served.tensor("top"))
    }

    fn check(&mut self, id: u64, out: CnnOutput) -> bool {
        out == self.expected[self.image(id)]
    }

    /// Uploads the weights as a worker uploads residents on first use:
    /// linear sources as arrays, the dense grid as a matrix.
    fn replay_setup(&mut self, cc: &mut ComputeContext) -> Result<(), ComputeError> {
        let [w1, w2, wd] = &self.weights;
        self.built.clear();
        self.weight_arrays = vec![
            cc.upload_any(w1)?,
            cc.upload_any(w2)?,
            cc.upload_any_matrix(cnn::DENSE_OUTPUTS as u32, cnn::DENSE_INPUTS as u32, wd)?,
        ];
        Ok(())
    }

    fn replay(
        &mut self,
        cc: &mut ComputeContext,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<CnnOutput, ComputeError> {
        let key = self.spec.fingerprint();
        let (spec, built) = (&self.spec, &mut self.built);
        tr.span(id, Layer::Build, || -> Result<(), ComputeError> {
            if let Entry::Vacant(slot) = built.entry(key) {
                slot.insert(spec.build(cc)?);
            }
            Ok(())
        })?;
        let pipeline = self.built[&key].pipeline();
        let image = &self.images[self.image(id)];
        let img = tr.span(id, Layer::Upload, || {
            cc.upload_any_matrix(cnn::IMG_SIDE, cnn::IMG_SIDE, image)
        })?;
        tr.upload_bytes += upload_bytes_for(ScalarType::U8, img.layout().texel_count());
        let mut seeds = vec![SourceSeed::any("img", &img)];
        for (name, array) in ["w1", "w2", "wd"].into_iter().zip(&self.weight_arrays) {
            seeds.push(SourceSeed::any(name, array));
        }
        let result = tr
            .span(id, Layer::Shade, || pipeline.run_seeded(cc, &seeds))
            .and_then(|run| {
                let read = tr.span(id, Layer::Readback, || -> Result<_, ComputeError> {
                    Ok((run.read_any(cc, "scores")?, run.read_any(cc, "top")?))
                });
                for name in ["scores", "top"] {
                    let texels = run.layout(name).map_or(0, |l| l.texel_count());
                    tr.readback_bytes += readback_bytes_for(texels);
                }
                run.finish(cc);
                read
            });
        cc.recycle_any(img);
        let (scores, top) = result?;
        Ok(cnn_output(Some(&scores), Some(&top)))
    }
}

// ---- tenant-churn and tenant-reuse ------------------------------------------

/// Elements per tenant request.
const TENANT_N: usize = 256;
const TENANT: &str = "tenant";

/// The kernel source number `source` registers: the baked constants make
/// every number's generated source, and so its program, distinct.
fn tenant_spec(source: u64) -> KernelSpec {
    let scale = 1.0 + (source % 4096) as f32 / 4096.0;
    let offset = (source / 4096) as f32;
    KernelSpec::new(format!("tenant_{source}"))
        .input("x")
        .output(TENANT_N)
        .body(format!("return fetch_x(idx) * {scale:?} + {offset:?};"))
}

/// Each request registers a kernel with `KernelRegistry::register`, serves
/// it once and retires it, so admission runs on every request.
///
/// * tenant-churn (`recurring: None`): every source is new, so every request
///   links and adopts a program. The only workload where linking matters
///   and that writes to the shared program cache.
/// * tenant-reuse (`recurring: Some(k)`): sources cycle through `k`; the
///   workers still hold each program after `retire`, so nothing links. The
///   cache-hit twin of tenant-churn.
pub struct TenantKernels {
    x: Arc<Vec<f32>>,
    recurring: Option<u64>,
    registry: Option<KernelRegistry>,
    live: HashMap<u64, RegisteredKernel>,
    /// `(source, output digest)` awaiting comparison with a direct build of
    /// the source; a digest keeps the benchmark's own memory out of
    /// `peak_rss_mb`.
    pending: Vec<(u64, u64)>,
}

impl TenantKernels {
    pub fn churn(seed: u64) -> TenantKernels {
        TenantKernels::new(seed, None)
    }

    pub fn reuse(seed: u64) -> TenantKernels {
        TenantKernels::new(seed, Some(8))
    }

    fn new(seed: u64, recurring: Option<u64>) -> TenantKernels {
        TenantKernels {
            x: Arc::new(data::random_f32(TENANT_N, seed, 25.0)),
            recurring,
            registry: None,
            live: HashMap::new(),
            pending: Vec::new(),
        }
    }

    fn source(&self, id: u64) -> u64 {
        self.recurring.map_or(id, |k| id % k)
    }

    fn registry(&self) -> Result<KernelRegistry, ComputeError> {
        self.registry
            .clone()
            .ok_or_else(|| ComputeError::EngineInternal {
                message: "tenant workload used before attach".into(),
            })
    }
}

impl Workload for TenantKernels {
    type Served = Vec<f32>;
    type Out = Vec<f32>;

    fn in_flight(&self) -> usize {
        1
    }

    /// Churn: a few requests. Reuse: every source twice, so a steady wave
    /// shows both workers already hold the whole cycle.
    fn wave(&self) -> u64 {
        self.recurring.map_or(4, |k| 2 * k)
    }

    fn replays(&self) -> u64 {
        600
    }

    fn attach(&mut self, engine: &Engine) -> Result<(), ComputeError> {
        self.registry = Some(engine.registry());
        Ok(())
    }

    /// Under churn every request links and adopts a program by design, so
    /// steady state means the texture pool stopped growing.
    fn steady(&self, wave: &ContextStats, links: u64) -> bool {
        match self.recurring {
            None => wave.textures_created == 0,
            Some(_) => links == 0 && wave.gl_objects_created() == 0,
        }
    }

    fn start(&mut self, engine: &Engine, id: u64) -> Result<JobHandle<Vec<f32>>, ComputeError> {
        let registry = self.registry()?;
        let kernel = registry.register(TENANT, tenant_spec(self.source(id)))?;
        match engine.submit(kernel.job().data_shared(&self.x)) {
            Ok(handle) => {
                self.live.insert(id, kernel);
                Ok(handle)
            }
            Err(e) => {
                registry.retire(&kernel);
                Err(e)
            }
        }
    }

    fn end(&mut self, id: u64) {
        if let (Some(kernel), Some(registry)) = (self.live.remove(&id), &self.registry) {
            registry.retire(&kernel);
        }
    }

    fn output(served: Vec<f32>) -> Vec<f32> {
        served
    }

    fn check(&mut self, id: u64, out: Vec<f32>) -> bool {
        self.pending.push((self.source(id), digest(&out)));
        true
    }

    /// Builds every checked source directly on a plain context, once per
    /// source, clearing its program cache after each build so verification
    /// holds no programs.
    fn finish_checks(&mut self) -> Result<u64, ComputeError> {
        let mut cc = direct_context()?;
        let x = cc.upload(self.x.as_slice())?;
        let mut expected: HashMap<u64, u64> = HashMap::new();
        let mut failed = 0;
        for (source, served) in std::mem::take(&mut self.pending) {
            if let Entry::Vacant(slot) = expected.entry(source) {
                let k = tenant_spec(source).build(&mut cc, &[x])?;
                let out: GpuArray<f32> = cc.run_to_array_with(&k, &Bindings::new())?;
                slot.insert(digest(&cc.read_array(&out, Readback::DirectFbo)?));
                cc.recycle_array(out);
                cc.clear_program_cache();
            }
            if expected[&source] != served {
                failed += 1;
            }
        }
        Ok(failed)
    }

    fn replay(
        &mut self,
        cc: &mut ComputeContext,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<Vec<f32>, ComputeError> {
        let registry = self.registry()?;
        let spec = tenant_spec(self.source(id));
        let kernel = tr.span(id, Layer::Admission, || registry.register(TENANT, spec))?;
        let served = upload_f32(cc, &self.x, id, tr)
            .and_then(|x| run_spec(cc, kernel.spec(), vec![x], id, tr));
        registry.retire(&kernel);
        served
    }
}
