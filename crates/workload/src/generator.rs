//! Seeded workload generation (Section IV-B).

use crate::arrivals::ArrivalModel;
use crate::catalog::{self, ServerType, VmType};
use crate::dist::Exponential;
use crate::esvt::EsvtWriter;
use crate::trace::TraceError;
use esvm_simcore::{AllocationProblem, Interval, ServerSpec, Vm, VmId, MAX_TIME};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Errors raised during workload generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GenerateError {
    /// The VM or server type list is empty.
    EmptyCatalog,
    /// The VM type weights have the wrong arity, contain negative or
    /// non-finite values, or sum to zero.
    BadWeights,
    /// The generated instance is structurally invalid (e.g. a VM type
    /// that fits no configured server type).
    Invalid(esvm_simcore::Error),
    /// Writing a streamed trace failed.
    Trace(TraceError),
    /// A parameter is out of range: a mean that is not finite and
    /// positive, a transition time that is negative or makes some `α`
    /// infinite, or a VM interval ending past
    /// [`MAX_TIME`](esvm_simcore::MAX_TIME).
    BadParameter(String),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::EmptyCatalog => write!(f, "vm and server type lists must be non-empty"),
            GenerateError::BadWeights => {
                write!(f, "vm type weights must be non-negative, finite, match the catalog arity and not all be zero")
            }
            GenerateError::Invalid(e) => write!(f, "generated instance is invalid: {e}"),
            GenerateError::Trace(e) => write!(f, "streamed trace write failed: {e}"),
            GenerateError::BadParameter(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for GenerateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenerateError::Invalid(e) => Some(e),
            GenerateError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for GenerateError {
    fn from(e: TraceError) -> Self {
        GenerateError::Trace(e)
    }
}

impl From<esvm_simcore::Error> for GenerateError {
    fn from(e: esvm_simcore::Error) -> Self {
        GenerateError::Invalid(e)
    }
}

/// Configuration of one synthetic workload, mirroring Section IV-B.
///
/// Defaults (overridable with the builder methods) follow Section IV-C:
/// mean inter-arrival 4 units, mean duration 5 units, transition time
/// 1 unit, all nine VM types, all five server types. Server types are
/// assigned to the fleet round-robin so the mix is as even as possible.
///
/// # Example
///
/// ```
/// use esvm_workload::{catalog, WorkloadConfig};
/// let p = WorkloadConfig::new(200, 100)
///     .mean_interarrival(2.0)
///     .vm_types(catalog::standard_vm_types())
///     .server_types(catalog::server_types_1_3())
///     .generate(7)?;
/// assert_eq!(p.vm_count(), 200);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadConfig {
    vm_count: usize,
    server_count: usize,
    mean_interarrival: f64,
    mean_duration: f64,
    transition_time: f64,
    vm_types: Vec<VmType>,
    vm_type_weights: Option<Vec<f64>>,
    server_types: Vec<ServerType>,
    arrivals: Option<ArrivalModel>,
}

impl WorkloadConfig {
    /// Creates a configuration for `vm_count` VMs on `server_count`
    /// servers with the paper's default parameters.
    pub fn new(vm_count: usize, server_count: usize) -> Self {
        Self {
            vm_count,
            server_count,
            mean_interarrival: 4.0,
            mean_duration: 5.0,
            transition_time: 1.0,
            vm_types: catalog::vm_types().to_vec(),
            vm_type_weights: None,
            server_types: catalog::server_types().to_vec(),
            arrivals: None,
        }
    }

    /// Overrides the server count (used by capacity planning sweeps).
    pub fn with_server_count(mut self, servers: usize) -> Self {
        self.server_count = servers;
        self
    }

    /// Sets the mean inter-arrival time (time units); paper sweep:
    /// 0.5–10.
    pub fn mean_interarrival(mut self, mean: f64) -> Self {
        self.mean_interarrival = mean;
        self
    }

    /// Sets the mean VM duration (time units); paper values: 2, 5, 10.
    pub fn mean_duration(mut self, mean: f64) -> Self {
        self.mean_duration = mean;
        self
    }

    /// Sets the server transition time (time units); paper range:
    /// 0.5–3 (30 s – 3 min at 1-minute units). `α_i = P_peak_i × time`.
    pub fn transition_time(mut self, time: f64) -> Self {
        self.transition_time = time;
        self
    }

    /// Overrides the arrival process (default: the paper's homogeneous
    /// Poisson stream at the configured mean inter-arrival time).
    pub fn arrivals(mut self, model: ArrivalModel) -> Self {
        self.arrivals = Some(model);
        self
    }

    /// Restricts the VM type catalog.
    pub fn vm_types(mut self, types: Vec<VmType>) -> Self {
        self.vm_types = types;
        self
    }

    /// Weights the VM type draw (default: uniform, the paper's setting).
    /// Real request mixes skew heavily toward small instances; pass one
    /// non-negative weight per configured VM type.
    pub fn vm_type_weights(mut self, weights: Vec<f64>) -> Self {
        self.vm_type_weights = Some(weights);
        self
    }

    /// Restricts the server type catalog.
    pub fn server_types(mut self, types: Vec<ServerType>) -> Self {
        self.server_types = types;
        self
    }

    /// Number of VMs to generate.
    pub fn vm_count_value(&self) -> usize {
        self.vm_count
    }

    /// Number of servers to generate.
    pub fn server_count_value(&self) -> usize {
        self.server_count
    }

    /// The configured mean inter-arrival time.
    pub fn mean_interarrival_value(&self) -> f64 {
        self.mean_interarrival
    }

    /// The configured mean duration.
    pub fn mean_duration_value(&self) -> f64 {
        self.mean_duration
    }

    /// The configured transition time.
    pub fn transition_time_value(&self) -> f64 {
        self.transition_time
    }

    /// Generates the seeded instance.
    ///
    /// * server `i` gets type `server_types[i mod k]` (round-robin mix);
    /// * VM start times are Poisson arrivals rounded up to integer units;
    /// * VM durations are exponential, rounded to integer units `≥ 1`;
    /// * VM demands are drawn uniformly from the VM type list.
    ///
    /// # Errors
    ///
    /// [`GenerateError::EmptyCatalog`] for empty type lists;
    /// [`GenerateError::BadWeights`] if the weight vector's arity or
    /// values are invalid;
    /// [`GenerateError::Invalid`] if some VM type fits no server type in
    /// the configuration (e.g. memory-intensive VMs on server types 1–3);
    /// [`GenerateError::BadParameter`] for an out-of-range mean or
    /// transition time, or an instance longer than the time axis.
    pub fn generate(&self, seed: u64) -> Result<AllocationProblem, GenerateError> {
        self.generate_with(seed, &mut Vec::new())
    }

    /// [`WorkloadConfig::generate`] with a caller-owned arrival-trace
    /// buffer. The buffer is cleared and refilled from the arrival
    /// count hint (one exact reservation, no intermediate `f64` trace),
    /// so multi-seed sweeps at the 100k / 1M-VM scale points reuse one
    /// allocation instead of churning two `O(vm_count)` temporaries per
    /// seed. Produces the bit-identical instance to
    /// [`WorkloadConfig::generate`] for the same seed.
    ///
    /// # Errors
    ///
    /// As [`WorkloadConfig::generate`].
    pub fn generate_with(
        &self,
        seed: u64,
        arrival_buf: &mut Vec<u32>,
    ) -> Result<AllocationProblem, GenerateError> {
        self.check_parameters()?;
        let cumulative = self.weight_cdf()?;
        let mut rng = StdRng::seed_from_u64(seed);

        let servers = self.build_servers();

        let model = self.arrivals.unwrap_or(ArrivalModel::Poisson {
            mean_interarrival: self.mean_interarrival,
        });
        model.sample_n_time_units_into(self.vm_count, &mut rng, arrival_buf);
        let durations = Exponential::with_mean(self.mean_duration);

        let vms = arrival_buf
            .iter()
            .copied()
            .enumerate()
            .map(|(j, start)| {
                let len = durations.sample_time_units(&mut rng);
                let idx = match &cumulative {
                    None => rng.gen_range(0..self.vm_types.len()),
                    Some(cdf) => {
                        let u: f64 = rng.gen();
                        cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
                    }
                };
                let ty = self.vm_types[idx];
                Ok(Vm::new(j as u32, ty.demand(), vm_interval(start, len)?))
            })
            .collect::<Result<_, GenerateError>>()?;

        Ok(AllocationProblem::new(servers, vms)?)
    }

    /// Rejects the parameters the samplers and [`ServerSpec::new`]
    /// would panic on.
    fn check_parameters(&self) -> Result<(), GenerateError> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if self.arrivals.is_none() && !positive(self.mean_interarrival) {
            return Err(GenerateError::BadParameter(format!(
                "mean inter-arrival must be finite and positive, got {:?}",
                self.mean_interarrival
            )));
        }
        if !positive(self.mean_duration) {
            return Err(GenerateError::BadParameter(format!(
                "mean duration must be finite and positive, got {:?}",
                self.mean_duration
            )));
        }
        let t = self.transition_time;
        if !(t >= 0.0 && self.server_types.iter().all(|s| (s.p_peak * t).is_finite())) {
            return Err(GenerateError::BadParameter(format!(
                "transition time must be non-negative and keep every α = P_peak · t finite, got {t:?}"
            )));
        }
        Ok(())
    }

    /// Validates the catalogs and turns the optional VM type weights
    /// into a cumulative distribution.
    fn weight_cdf(&self) -> Result<Option<Vec<f64>>, GenerateError> {
        if self.vm_types.is_empty() || self.server_types.is_empty() {
            return Err(GenerateError::EmptyCatalog);
        }
        match &self.vm_type_weights {
            None => Ok(None),
            Some(w) => {
                if w.len() != self.vm_types.len()
                    || w.iter().any(|&x| !x.is_finite() || x < 0.0)
                    || w.iter().sum::<f64>() <= 0.0
                {
                    return Err(GenerateError::BadWeights);
                }
                let total: f64 = w.iter().sum();
                let mut acc = 0.0;
                Ok(Some(
                    w.iter()
                        .map(|&x| {
                            acc += x / total;
                            acc
                        })
                        .collect(),
                ))
            }
        }
    }

    /// The server fleet of the configured instance (round-robin over
    /// the server type catalog), independent of the seed.
    fn build_servers(&self) -> Vec<ServerSpec> {
        (0..self.server_count)
            .map(|i| {
                self.server_types[i % self.server_types.len()]
                    .to_spec(i as u32, self.transition_time)
            })
            .collect()
    }

    /// Streams the seeded instance record-by-record through `sink`
    /// without ever materialising the VM vector.
    ///
    /// Emits the bit-identical record sequence to
    /// [`WorkloadConfig::generate`] for the same seed: `generate` draws
    /// all `n` arrivals first and then the per-VM duration/type pairs
    /// from a single RNG stream, so this method runs two clones of that
    /// RNG in lockstep — one streaming arrivals, one fast-forwarded past
    /// the arrival draws to supply the per-VM draws. Peak memory is
    /// O(servers), not O(VMs).
    ///
    /// # Errors
    ///
    /// As [`WorkloadConfig::generate`] — including
    /// [`GenerateError::Invalid`] with
    /// [`InfeasibleVm`](esvm_simcore::Error::InfeasibleVm) as soon as a
    /// drawn VM fits no server of the fleet.
    pub fn stream_generate(
        &self,
        seed: u64,
        mut sink: impl FnMut(&Vm) -> Result<(), GenerateError>,
    ) -> Result<(), GenerateError> {
        self.check_parameters()?;
        let cumulative = self.weight_cdf()?;
        if self.server_count == 0 {
            return Err(GenerateError::Invalid(esvm_simcore::Error::NoServers));
        }
        // Feasibility of each catalog type against the actual fleet
        // (small server fleets may not include every configured type).
        let present = self.server_count.min(self.server_types.len());
        let fits: Vec<bool> = self
            .vm_types
            .iter()
            .map(|ty| {
                self.server_types[..present]
                    .iter()
                    .any(|s| ty.demand().fits_within(s.capacity()))
            })
            .collect();

        let model = self.arrivals.unwrap_or(ArrivalModel::Poisson {
            mean_interarrival: self.mean_interarrival,
        });
        let durations = Exponential::with_mean(self.mean_duration);

        // Two clones of generate()'s RNG: `arrival_rng` replays the
        // arrival draws in place; `draw_rng` discards the identical
        // arrival draws first, leaving it positioned exactly where the
        // per-VM duration/type draws begin in the single-RNG path.
        let mut arrival_rng = StdRng::seed_from_u64(seed);
        let mut draw_rng = StdRng::seed_from_u64(seed);
        model.sample_each_time_unit(self.vm_count, &mut draw_rng, |_| {});

        let mut j: u32 = 0;
        let mut failure: Option<GenerateError> = None;
        model.sample_each_time_unit(self.vm_count, &mut arrival_rng, |start| {
            if failure.is_some() {
                return;
            }
            let len = durations.sample_time_units(&mut draw_rng);
            let idx = match &cumulative {
                None => draw_rng.gen_range(0..self.vm_types.len()),
                Some(cdf) => {
                    let u: f64 = draw_rng.gen();
                    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
                }
            };
            if !fits[idx] {
                failure = Some(GenerateError::Invalid(
                    esvm_simcore::Error::InfeasibleVm(VmId(j)),
                ));
                return;
            }
            let ty = self.vm_types[idx];
            let result = vm_interval(start, len)
                .and_then(|interval| sink(&Vm::new(j, ty.demand(), interval)));
            if let Err(e) = result {
                failure = Some(e);
            }
            j += 1;
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Generates the seeded instance straight into an ESVT stream —
    /// the generator and encoder each hold O(block) state, so a 1M-row
    /// trace is produced without a 1M-element `Vec` ever existing.
    ///
    /// The bytes are identical to
    /// `esvt::to_esvt(&self.generate(seed)?)`.
    ///
    /// # Errors
    ///
    /// As [`WorkloadConfig::stream_generate`], plus
    /// [`GenerateError::Trace`] if the sink fails.
    pub fn generate_esvt<W: Write>(&self, seed: u64, out: W) -> Result<W, GenerateError> {
        // Parameter and catalog validation must precede any header write.
        self.check_parameters()?;
        self.weight_cdf()?;
        let servers = self.build_servers();
        let mut w = EsvtWriter::new(out, &servers, self.vm_count as u64)?;
        self.stream_generate(seed, |vm| w.push(vm).map_err(GenerateError::from))?;
        Ok(w.finish()?)
    }

    /// [`WorkloadConfig::generate_esvt`] into a buffered file. The trace
    /// is streamed into a temporary file beside `path` and renamed over
    /// it only once its last block is written and flushed, so a failed
    /// run leaves no torn trace and keeps whatever `path` held.
    ///
    /// # Errors
    ///
    /// As [`WorkloadConfig::generate_esvt`].
    pub fn generate_esvt_file(&self, seed: u64, path: impl AsRef<Path>) -> Result<(), GenerateError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| GenerateError::Trace(TraceError::Io(e.to_string()));
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{}.tmp", std::process::id()));
        let tmp = path.with_file_name(name);
        let written = (|| {
            let file = std::fs::File::create(&tmp).map_err(io)?;
            let mut out = self.generate_esvt(seed, std::io::BufWriter::new(file))?;
            out.flush().map_err(io)?;
            drop(out);
            std::fs::rename(&tmp, path).map_err(io)
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

/// The interval `[start, start + len − 1]`, or an error when its end
/// passes [`MAX_TIME`] (huge means saturate the samplers at `u32::MAX`).
fn vm_interval(start: u32, len: u32) -> Result<Interval, GenerateError> {
    match start.checked_add(len - 1) {
        Some(end) if end <= MAX_TIME => Ok(Interval::new(start, end)),
        _ => Err(GenerateError::BadParameter(format!(
            "a VM starting at {start} for {len} units ends past the time axis bound {MAX_TIME}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{server_types_1_3, standard_vm_types};

    #[test]
    fn a_failed_esvt_file_keeps_the_old_trace_and_leaves_no_temporary() {
        let dir = std::env::temp_dir().join(format!("esvm-gen-esvt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.esvt");
        WorkloadConfig::new(30, 10).generate_esvt_file(3, &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut direct = Vec::new();
        WorkloadConfig::new(30, 10).generate_esvt(3, &mut direct).unwrap();
        assert_eq!(before, direct, "a successful run writes the streamed bytes");
        assert!(WorkloadConfig::new(40, 1).generate_esvt_file(0, &path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, vec![std::ffi::OsString::from("one.esvt")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generates_requested_counts() {
        let p = WorkloadConfig::new(120, 60).generate(1).unwrap();
        assert_eq!(p.vm_count(), 120);
        assert_eq!(p.server_count(), 60);
    }

    #[test]
    fn same_seed_same_instance() {
        let cfg = WorkloadConfig::new(50, 25).mean_interarrival(2.0);
        let a = cfg.generate(9).unwrap();
        let b = cfg.generate(9).unwrap();
        assert_eq!(a.vms(), b.vms());
        assert_eq!(a.servers(), b.servers());
    }

    #[test]
    fn buffer_reusing_generation_is_bit_identical() {
        let cfg = WorkloadConfig::new(300, 40).mean_interarrival(1.5);
        let mut buf = Vec::new();
        for seed in [0_u64, 7, 42] {
            let owned = cfg.generate(seed).unwrap();
            let reused = cfg.generate_with(seed, &mut buf).unwrap();
            assert_eq!(owned.vms(), reused.vms(), "seed {seed}");
            assert_eq!(owned.servers(), reused.servers(), "seed {seed}");
        }
        // The buffer holds the last trace and its capacity is reused.
        assert_eq!(buf.len(), 300);
        let cap = buf.capacity();
        cfg.generate_with(99, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn streamed_esvt_is_byte_identical_to_materialized() {
        // The two-RNG lockstep must reproduce generate()'s draw order
        // exactly, for every arrival model (thinning draws included).
        let configs = [
            WorkloadConfig::new(500, 40).mean_interarrival(1.5),
            WorkloadConfig::new(300, 20).arrivals(ArrivalModel::Diurnal {
                mean_interarrival: 2.0,
                amplitude: 0.7,
                period: 200.0,
            }),
            WorkloadConfig::new(300, 20).arrivals(ArrivalModel::Bursty {
                quiet_interarrival: 3.0,
                burstiness: 5.0,
                mean_quiet_sojourn: 40.0,
                mean_burst_sojourn: 10.0,
            }),
            WorkloadConfig::new(400, 30).vm_type_weights({
                let mut w = vec![1.0; catalog::vm_types().len()];
                w[0] = 20.0;
                w
            }),
        ];
        for (i, cfg) in configs.iter().enumerate() {
            for seed in [0_u64, 7, 42] {
                let materialized = crate::esvt::to_esvt(&cfg.generate(seed).unwrap());
                let streamed = cfg.generate_esvt(seed, Vec::new()).unwrap();
                assert_eq!(streamed, materialized, "config {i}, seed {seed}");
            }
        }
    }

    #[test]
    fn stream_generate_reports_infeasible_vms() {
        // m2.4xlarge (68.4 GB) does not fit server type 1 (32 GB).
        let cfg = WorkloadConfig::new(200, 10)
            .vm_types(vec![catalog::VM_TYPES[6]])
            .server_types(vec![catalog::SERVER_TYPES[0]]);
        let err = cfg.stream_generate(8, |_| Ok(())).unwrap_err();
        assert!(matches!(err, GenerateError::Invalid(_)), "{err}");
        let err = cfg.generate_esvt(8, Vec::new()).unwrap_err();
        assert!(matches!(err, GenerateError::Invalid(_)), "{err}");
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WorkloadConfig::new(50, 25);
        let a = cfg.generate(1).unwrap();
        let b = cfg.generate(2).unwrap();
        assert_ne!(a.vms(), b.vms());
    }

    #[test]
    fn server_types_cycle_round_robin() {
        let p = WorkloadConfig::new(10, 7).generate(3).unwrap();
        let k = catalog::server_types().len();
        for (i, s) in p.servers().iter().enumerate() {
            let t = &catalog::server_types()[i % k];
            assert_eq!(s.capacity(), t.capacity());
        }
    }

    #[test]
    fn vm_demands_come_from_the_catalog() {
        let p = WorkloadConfig::new(300, 150).generate(4).unwrap();
        for vm in p.vms() {
            assert!(
                catalog::vm_types()
                    .iter()
                    .any(|t| t.demand() == vm.demand()),
                "{vm}"
            );
        }
    }

    #[test]
    fn arrivals_ascend_with_vm_ids() {
        let p = WorkloadConfig::new(200, 100).generate(5).unwrap();
        for w in p.vms().windows(2) {
            assert!(w[0].start() <= w[1].start());
        }
    }

    #[test]
    fn mean_duration_is_respected_statistically() {
        let p = WorkloadConfig::new(5000, 2500)
            .mean_duration(10.0)
            .generate(6)
            .unwrap();
        let mean = p.vms().iter().map(|v| v.duration() as f64).sum::<f64>() / 5000.0;
        assert!((mean - 10.0).abs() < 0.6, "mean duration {mean}");
    }

    #[test]
    fn standard_on_small_servers_is_valid() {
        let p = WorkloadConfig::new(100, 50)
            .vm_types(standard_vm_types())
            .server_types(server_types_1_3())
            .generate(7)
            .unwrap();
        assert_eq!(p.vm_count(), 100);
    }

    #[test]
    fn infeasible_combination_is_rejected() {
        // m2.4xlarge (68.4 GB) does not fit server type 1 (32 GB).
        let cfg = WorkloadConfig::new(200, 10)
            .vm_types(vec![catalog::VM_TYPES[6]])
            .server_types(vec![catalog::SERVER_TYPES[0]]);
        let err = cfg.generate(8).unwrap_err();
        assert!(matches!(err, GenerateError::Invalid(_)));
    }

    #[test]
    fn empty_catalog_is_rejected() {
        let err = WorkloadConfig::new(10, 5)
            .vm_types(vec![])
            .generate(0)
            .unwrap_err();
        assert_eq!(err, GenerateError::EmptyCatalog);
        let err = WorkloadConfig::new(10, 5)
            .server_types(vec![])
            .generate(0)
            .unwrap_err();
        assert_eq!(err, GenerateError::EmptyCatalog);
    }

    #[test]
    fn accessors_report_configuration() {
        let cfg = WorkloadConfig::new(10, 5)
            .mean_interarrival(3.0)
            .mean_duration(7.0)
            .transition_time(0.5);
        assert_eq!(cfg.vm_count_value(), 10);
        assert_eq!(cfg.server_count_value(), 5);
        assert_eq!(cfg.mean_interarrival_value(), 3.0);
        assert_eq!(cfg.mean_duration_value(), 7.0);
        assert_eq!(cfg.transition_time_value(), 0.5);
    }

    #[test]
    fn weighted_vm_types_skew_the_mix() {
        // Weight m1.small 50× the rest: it should dominate the draw.
        let mut weights = vec![1.0; catalog::vm_types().len()];
        weights[0] = 50.0;
        let p = WorkloadConfig::new(2000, 1000)
            .vm_type_weights(weights)
            .generate(21)
            .unwrap();
        let small = catalog::VM_TYPES[0].demand();
        let count = p.vms().iter().filter(|v| v.demand() == small).count();
        // Expected fraction 50/58 ≈ 86 %.
        assert!(count > 1500, "only {count} of 2000 were m1.small");
    }

    #[test]
    fn bad_weights_are_rejected() {
        for weights in [vec![1.0], vec![-1.0; 9], vec![0.0; 9], vec![f64::NAN; 9]] {
            let err = WorkloadConfig::new(10, 5)
                .vm_type_weights(weights.clone())
                .generate(0)
                .unwrap_err();
            assert_eq!(err, GenerateError::BadWeights, "{weights:?}");
        }
    }

    #[test]
    fn arrival_model_override_is_used() {
        use crate::arrivals::ArrivalModel;
        let base = WorkloadConfig::new(200, 100).mean_interarrival(2.0);
        let diurnal = base.clone().arrivals(ArrivalModel::Diurnal {
            mean_interarrival: 2.0,
            amplitude: 0.9,
            period: 50.0,
        });
        let a = base.generate(5).unwrap();
        let b = diurnal.generate(5).unwrap();
        // Same seed, different processes → different arrival patterns.
        assert_ne!(
            a.vms().iter().map(|v| v.start()).collect::<Vec<_>>(),
            b.vms().iter().map(|v| v.start()).collect::<Vec<_>>()
        );
        assert_eq!(b.vm_count(), 200);
    }

    #[test]
    fn transition_time_scales_alpha() {
        let p = WorkloadConfig::new(10, 5)
            .transition_time(3.0)
            .generate(1)
            .unwrap();
        for (i, s) in p.servers().iter().enumerate() {
            let t = &catalog::server_types()[i % 5];
            assert_eq!(s.transition_cost(), t.p_peak * 3.0);
        }
    }

    #[test]
    fn out_of_range_parameters_are_typed_errors() {
        let base = WorkloadConfig::new(12, 6);
        let bad = [
            base.clone().mean_interarrival(0.0),
            base.clone().mean_interarrival(f64::NAN),
            base.clone().mean_interarrival(f64::INFINITY),
            base.clone().mean_duration(-1.0),
            base.clone().mean_duration(f64::INFINITY),
            base.clone().transition_time(-1.0),
            base.clone().transition_time(f64::NAN),
            // α = P_peak · t overflows to infinity.
            base.clone().transition_time(1e308),
            // Finite means whose samples run past the u32 time axis.
            base.clone().mean_interarrival(1e308),
            base.clone().mean_duration(1e308),
        ];
        for config in bad {
            let ctx = format!("{config:?}");
            let err = config.generate(0).unwrap_err();
            assert!(matches!(err, GenerateError::BadParameter(_)), "{ctx}: {err}");
            let err = config.generate_esvt(0, Vec::new()).unwrap_err();
            assert!(matches!(err, GenerateError::BadParameter(_)), "{ctx}: {err}");
        }
    }
}
