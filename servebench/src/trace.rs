//! Outside-in tracing for the replay: spans recorded by the benchmark's own
//! code around each public layer call it makes, kept in memory and written
//! out when the run ends. Nothing inside the library is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The boundaries the replay times. `Request` is the parent of every other
/// span with the same request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Request,
    /// `KernelRegistry::register` → `glsl::admission::admit`.
    Admission,
    /// `KernelSpec::build_any`, or the worker-style lookup of a built pipeline.
    Build,
    /// `ComputeContext::upload` / `upload_any_matrix`.
    Upload,
    /// `run_to_array_any_with` / `Pipeline::run_seeded`: raster plus SPMD VM.
    Shade,
    /// `read_array_any` / `PipelineRun::read_any`.
    Readback,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Admission => "glsl.admission",
            Layer::Build => "core.build",
            Layer::Upload => "core.upload",
            Layer::Shade => "gles2.shade",
            Layer::Readback => "core.readback",
        }
    }
}

struct Span {
    request: u64,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder plus the byte counts the layers moved. With tracing off it
/// reads no clock, so an untraced replay pass measures the bare calls.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    /// Bytes uploaded host→GPU, as `gpes_perf::upload_bytes_for` counts them.
    pub upload_bytes: u64,
    /// Bytes read back GPU→host (`glReadPixels` is always RGBA8).
    pub readback_bytes: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            upload_bytes: 0,
            readback_bytes: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; pass the result to [`Tracer::close`].
    pub fn open(&self) -> u64 {
        if self.on {
            self.now_ns()
        } else {
            0
        }
    }

    pub fn close(&mut self, request: u64, layer: Layer, start_ns: u64) {
        if self.on {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                request,
                layer,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a `layer` span of `request`.
    pub fn span<T>(&mut self, request: u64, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.open();
        let out = f();
        self.close(request, layer, start);
        out
    }

    /// Nanoseconds spent in `layer` over every recorded span.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = match s.layer {
                Layer::Request => "null".to_string(),
                _ => format!("\"{}\"", Layer::Request.name()),
            };
            writeln!(
                out,
                "{{\"request\":{},\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.layer.name(),
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
