//! The training loop of Alg. 1: minibatch SGD with Adam, the combined
//! `w·auxiliary + (1−w)·main` loss, the paper's LR schedule (0.01, ÷5
//! every 2 epochs), per-step validation tracking (Fig. 10), and
//! convergence accounting (Table 3).

use crate::checkpoint::{TrainProgress, TrainingCheckpoint, CHECKPOINT_VERSION};
use crate::config::DeepOdConfig;
use crate::features::{EncodedSample, FeatureContext};
use crate::inference::InferenceModel;
use crate::model::{DeepOdModel, ModelError};
use deepod_nn::{AdamOptimizer, Gradients, LrSchedule, ParamStore};
use deepod_roadnet::RoadNetwork;
use deepod_traj::CityDataset;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
// Wall clocks time the *report*, never the computation: loss curves and
// model selection depend only on (seed, thread count). The
// nondeterminism rule is relaxed only where the report is timed.
use std::time::Instant;

/// Eagerly materializes every metric key the training loop emits, so a
/// snapshot taken before (or without) training still carries the full
/// key set. Called once per process from `RuntimeConfig::apply`.
pub fn register_metrics() {
    use crate::obs::registry;
    registry::counter_add("train.steps", 0);
    registry::counter_add("train.evals", 0);
    registry::counter_add("train.epochs", 0);
    registry::counter_add("checkpoint.resume_hits", 0);
    registry::register_histogram("train.grad_norm");
    registry::register_gauge("train.loss_last");
    registry::register_gauge("train.loss_main_last");
    registry::register_gauge("train.loss_aux_last");
    registry::register_gauge("train.val_mae_last");
    registry::register_gauge("train.best_val_mae");
    registry::register_series("train.epoch_loss");
    registry::register_series("train.val_mae");
}

/// Training-loop options independent of the model config.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Evaluate validation MAE every `eval_every` steps (0 = per epoch).
    pub eval_every: usize,
    /// Cap on validation samples per evaluation (keeps Fig. 10-style
    /// curves cheap).
    pub max_eval_samples: usize,
    /// Stop early when validation MAE hasn't improved for this many
    /// evaluations (0 = never).
    pub patience: usize,
    /// Gradient clipping threshold (global norm, 0 = off).
    pub clip_norm: f32,
    /// Decoupled weight decay (AdamW); regularizes against the overfitting
    /// that small synthetic datasets invite.
    pub weight_decay: f32,
    /// Worker threads for minibatch gradients, validation and batch
    /// prediction. `0` resolves to `DEEPOD_THREADS` (or the machine's
    /// available parallelism). `1` runs every span on the calling thread.
    pub threads: usize,
    /// Raise the observability gate to `info` (unless `DEEPOD_LOG` set it
    /// explicitly) so per-eval and per-epoch progress events reach stderr.
    pub verbose: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            eval_every: 50,
            max_eval_samples: 256,
            patience: 0,
            clip_norm: 5.0,
            weight_decay: 1e-3,
            threads: 0,
            verbose: false,
        }
    }
}

/// One point of the training curve.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Optimizer steps so far.
    pub step: usize,
    /// Validation MAE in seconds.
    pub val_mae: f32,
    /// Wall-clock seconds since training started.
    pub elapsed_s: f64,
}

/// The point at which a validation curve counts as converged: the first
/// whose MAE is within 2 % of the curve's best (Table 3's "convergence
/// steps", the paper's steps/time to stabilize). The best point itself
/// qualifies; a curve with no finite MAE converges at its last point, an
/// empty one never.
pub fn convergence_point(curve: &[CurvePoint]) -> Option<&CurvePoint> {
    let best = curve
        .iter()
        .map(|p| p.val_mae)
        .fold(f32::INFINITY, f32::min);
    curve
        .iter()
        .find(|p| p.val_mae <= best * 1.02)
        .or(curve.last())
}

/// Result of a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// Validation-MAE curve (Fig. 10).
    pub curve: Vec<CurvePoint>,
    /// Best validation MAE observed.
    pub best_val_mae: f32,
    /// Step at which the run is considered converged
    /// ([`convergence_point`] of `curve`).
    pub convergence_step: usize,
    /// Wall-clock seconds at the convergence step.
    pub convergence_time_s: f64,
    /// Total optimizer steps executed.
    pub total_steps: usize,
    /// Total wall-clock training seconds.
    pub total_time_s: f64,
    /// Mean training loss of the final epoch.
    pub final_train_loss: f32,
}

/// When and where [`Trainer::train_with_checkpoints`] persists training
/// state.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Save a checkpoint every `every_steps` optimizer steps (`0` = only
    /// at epoch boundaries; a boundary checkpoint is always written).
    pub every_steps: usize,
    /// Destination file, atomically replaced on every save — a crash
    /// mid-save leaves the previous checkpoint intact.
    pub path: PathBuf,
}

/// Summed per-minibatch loss with its components (observability only;
/// `loss` is the value the optimizer path always used).
#[derive(Clone, Copy, Debug, Default)]
struct BatchGrad {
    /// Summed combined loss over the batch.
    loss: f32,
    /// Summed main (MAE) component.
    main: f32,
    /// Summed auxiliary (code-binding) component.
    aux: f32,
}

impl BatchGrad {
    fn accumulate(&mut self, parts: &crate::model::LossParts) {
        self.loss += parts.total;
        self.main += parts.main;
        self.aux += parts.aux;
    }
}

/// What Alg. 1's loop carries from one minibatch to the next: all of a
/// [`TrainingCheckpoint`] except the model. A run starts from a fresh
/// one or from the one [`Trainer::resume`] rebuilt, and
/// [`RunState::checkpoint`] is the only way back to a checkpoint.
struct RunState {
    opt: AdamOptimizer,
    rng: StdRng,
    /// Parameter snapshot of the best validation point (shallow clones;
    /// copy-on-write keeps it intact while the optimizer updates the live
    /// store).
    best_store: ParamStore,
    /// The live loop position. `rng_state` is the RNG at the start of
    /// `epoch`, before its shuffle; `elapsed_s` is the wall time earlier
    /// processes spent on this run.
    progress: TrainProgress,
}

impl RunState {
    /// The run as a checkpoint with `model` live, `elapsed_s` seconds in.
    fn checkpoint(&self, model: &DeepOdModel, elapsed_s: f64) -> TrainingCheckpoint {
        TrainingCheckpoint {
            version: CHECKPOINT_VERSION,
            model: model.clone(),
            best_store: self.best_store.clone(),
            optimizer: self.opt.snapshot(),
            progress: TrainProgress {
                elapsed_s,
                ..self.progress.clone()
            },
        }
    }
}

/// Drives training of a [`DeepOdModel`] on a [`CityDataset`].
pub struct Trainer<'a> {
    ds: &'a CityDataset,
    ctx: FeatureContext,
    model: DeepOdModel,
    opts: TrainOptions,
    train_samples: Vec<EncodedSample>,
    val_samples: Vec<EncodedSample>,
    /// The run [`Trainer::resume`] rebuilt: the next `train` call
    /// continues it, any later one starts afresh.
    resumed: Option<RunState>,
}

impl<'a> Trainer<'a> {
    /// Builds the feature context, encodes the train/validation splits and
    /// initializes the model.
    pub fn new(
        ds: &'a CityDataset,
        cfg: DeepOdConfig,
        opts: TrainOptions,
    ) -> Result<Self, ModelError> {
        Self::build(ds, cfg.slot_seconds, opts, |ctx| {
            DeepOdModel::new(&cfg, ds, ctx)
        })
    }

    /// Rebuilds the trainer of an interrupted run from its checkpoint, so
    /// the next `train` call continues the run. The config and the model
    /// come from `ckpt`; for the same `(seed, threads)` the resumed curves
    /// are bit-identical to the uninterrupted run's.
    ///
    /// The checkpoint is outside input, so its config is validated. The
    /// worker-thread count `opts` resolves to must be the checkpoint's: it
    /// fixes the floating-point stream, and silently accepting another
    /// would void the bit-identical-resume guarantee the crash-safety
    /// suite enforces.
    pub fn resume(
        ds: &'a CityDataset,
        ckpt: TrainingCheckpoint,
        opts: TrainOptions,
    ) -> Result<Self, ModelError> {
        let TrainingCheckpoint {
            model,
            best_store,
            optimizer,
            progress,
            ..
        } = ckpt;
        model.config.validate().map_err(ModelError::InvalidConfig)?;
        let threads = deepod_tensor::parallel::resolve_threads(opts.threads);
        if progress.threads != threads {
            return Err(ModelError::InvalidConfig(format!(
                "checkpoint was trained with {} worker threads but this trainer resolves to \
                 {threads}; gradient merge order depends on the thread count, so resume \
                 requires the same value (set TrainOptions::threads explicitly)",
                progress.threads
            )));
        }
        let slot_seconds = model.config.slot_seconds;
        let mut trainer = Self::build(ds, slot_seconds, opts, |_| Ok(model))?;
        crate::obs::registry::counter_inc("checkpoint.resume_hits");
        crate::obs::info(
            "train",
            "resumed from checkpoint",
            &[
                ("epoch", progress.epoch.into()),
                ("batches_done", progress.batches_done.into()),
                ("step", progress.step.into()),
            ],
        );
        trainer.resumed = Some(RunState {
            opt: AdamOptimizer::from_snapshot(&optimizer),
            rng: StdRng::from_state(progress.rng_state),
            best_store,
            progress,
        });
        Ok(trainer)
    }

    /// What [`Trainer::new`] and [`Trainer::resume`] share: the feature
    /// context, the model `model` makes over it, and the encoded splits,
    /// neither of which may be empty.
    fn build(
        ds: &'a CityDataset,
        slot_seconds: f64,
        opts: TrainOptions,
        model: impl FnOnce(&FeatureContext) -> Result<DeepOdModel, ModelError>,
    ) -> Result<Self, ModelError> {
        let ctx = FeatureContext::build(ds, slot_seconds)
            .map_err(|e| ModelError::InvalidConfig(e.to_string()))?;
        let model = model(&ctx)?;
        let train_samples = ctx.encode_orders(&ds.net, &ds.train);
        let val_samples = ctx.encode_orders(&ds.net, &ds.validation);
        if train_samples.is_empty() {
            return Err(ModelError::InvalidConfig(
                "no encodable training samples in the dataset".into(),
            ));
        }
        if val_samples.is_empty() {
            // Without this check an empty validation split used to flow
            // through as a silent NaN best_val_mae in serialized reports.
            return Err(ModelError::InvalidConfig(
                "no encodable validation samples in the dataset; \
                 validation MAE (and model selection) would be undefined"
                    .into(),
            ));
        }
        Ok(Trainer {
            ds,
            ctx,
            model,
            opts,
            train_samples,
            val_samples,
            resumed: None,
        })
    }

    /// The trained (or in-training) model.
    pub fn model(&mut self) -> &mut DeepOdModel {
        &mut self.model
    }

    /// Immutable view of the model. Batched inference
    /// ([`DeepOdModel::estimate_batch`]) takes `&self`, so this borrow can
    /// coexist with [`Self::context`] / [`Self::validation_samples`].
    pub fn model_ref(&self) -> &DeepOdModel {
        &self.model
    }

    /// Consumes the trainer, returning the model.
    pub fn into_model(self) -> DeepOdModel {
        self.model
    }

    /// The feature context + network pair needed for estimation calls.
    pub fn context(&self) -> (&FeatureContext, &RoadNetwork) {
        (&self.ctx, &self.ds.net)
    }

    /// Encoded validation samples (used by evaluation code).
    pub fn validation_samples(&self) -> &[EncodedSample] {
        &self.val_samples
    }

    /// Worker-thread count for gradient/eval fan-out (resolved from the
    /// options, `DEEPOD_THREADS`, or the machine).
    fn threads(&self) -> usize {
        deepod_tensor::parallel::resolve_threads(self.opts.threads)
    }

    /// Predicts travel times for a batch of orders with the current model
    /// (splits the context/model borrows internally). Spans of orders are
    /// contiguous and re-concatenated in order, so the output is identical
    /// for every thread count.
    pub fn predict_orders(&mut self, orders: &[deepod_traj::TaxiOrder]) -> Vec<Option<f32>> {
        let reqs: Vec<crate::PredictRequest> = orders
            .iter()
            .map(|o| crate::PredictRequest::Raw(o.od))
            .collect();
        self.model
            .estimate_batch(&self.ctx, &self.ds.net, &reqs, self.opts.threads)
            .into_iter()
            .map(|r| r.ok().map(|resp| resp.eta_seconds))
            .collect()
    }

    /// Predicts the travel time for one raw OD input.
    pub fn predict_od(&mut self, od: &deepod_traj::OdInput) -> Option<f32> {
        self.model
            .estimate_batch(
                &self.ctx,
                &self.ds.net,
                &[crate::PredictRequest::Raw(*od)],
                1,
            )
            .remove(0)
            .ok()
            .map(|resp| resp.eta_seconds)
    }

    /// Encoded training samples.
    pub fn train_samples(&self) -> &[EncodedSample] {
        &self.train_samples
    }

    /// Validation MAE of the current model over (a capped number of)
    /// validation samples.
    pub fn validation_mae(&mut self) -> f32 {
        let n = self
            .val_samples
            .len()
            .min(self.opts.max_eval_samples.max(1));
        if n == 0 {
            // Unreachable through `Trainer::new` (which rejects an empty
            // validation split), but never let it pass silently again.
            crate::obs::warn("train", "validation set empty; MAE undefined", &[]);
            return f32::NAN;
        }
        let t = self.threads().min(n).max(1);
        // Per-span partial sums, added back in span order: the total is a
        // fixed left-to-right sum over spans, deterministic per thread
        // count (one span at one thread, i.e. the plain serial sum).
        let model = InferenceModel::from_model(&self.model);
        let samples = &self.val_samples;
        let sums = deepod_tensor::parallel::map_ranges(n, t, |span| {
            let mut acc = 0.0f32;
            for s in &samples[span] {
                // Samples come from this trainer's own context, so the
                // encoding is well-formed; NaN would poison the MAE loudly.
                let pred = model.eval_encoded(&s.od).unwrap_or(f32::NAN);
                acc += (pred - s.travel_time).abs();
            }
            acc
        });
        sums.into_iter().fold(0.0f32, |a, b| a + b) / n as f32
    }

    /// Summed loss and merged gradients for one minibatch.
    ///
    /// The batch is split into one contiguous span per thread, each
    /// processed on a clone of the model (copy-on-write parameter store,
    /// so cloning is cheap); one thread runs its one span on the calling
    /// thread. Per-span losses are summed in span order and per-span
    /// gradients merged by a deterministic adjacent-pair tree reduction,
    /// making the result a pure function of (batch, thread count) — never
    /// of thread scheduling. Batch-norm running statistics accumulated by
    /// the workers are averaged back into the live model weighted by span
    /// length.
    fn batch_gradients(&mut self, chunk: &[usize], threads: usize) -> (BatchGrad, Gradients) {
        let t = threads.min(chunk.len()).max(1);
        let model = &self.model;
        let samples = &self.train_samples;
        let results = deepod_tensor::parallel::map_ranges(chunk.len(), t, |span| {
            let mut local = model.clone();
            let mut grads = Gradients::new();
            let mut batch = BatchGrad::default();
            let len = span.len();
            for &idx in &chunk[span] {
                let (parts, g) = local.sample_gradients_traced(&samples[idx]);
                batch.accumulate(&parts);
                grads.merge(g);
            }
            (len, batch, grads, local)
        });

        let total = chunk.len() as f32;
        let mut batch = BatchGrad::default();
        let mut grad_parts = Vec::with_capacity(results.len());
        let mut bn_workers = Vec::with_capacity(results.len());
        for (len, part, grads, local) in results {
            // Span-order sum: the total stays a pure function of (batch,
            // thread count).
            batch.loss += part.loss;
            batch.main += part.main;
            batch.aux += part.aux;
            grad_parts.push(grads);
            bn_workers.push((len as f32 / total, local));
        }
        self.model.merge_bn_stats(&bn_workers);
        let grads = deepod_tensor::parallel::tree_reduce(grad_parts, |mut a, b| {
            a.merge(b);
            a
        })
        .unwrap_or_default();
        (batch, grads)
    }

    /// Runs Alg. 1's `ModelTrain` for the configured number of epochs and
    /// returns the training report.
    pub fn train(&mut self) -> TrainReport {
        // `Infallible` save callback: the error arm is statically
        // unreachable, keeping this signature panic-free without unwraps.
        let result: Result<TrainReport, std::convert::Infallible> =
            self.train_driver(None, |_| Ok(()));
        match result {
            Ok(report) => report,
            Err(e) => match e {},
        }
    }

    /// Like [`Trainer::train`], but persists a [`TrainingCheckpoint`]
    /// according to `policy` (atomically, with a checksum footer) so the
    /// run survives crashes. [`Trainer::resume`] continues a killed run
    /// with bit-identical loss/validation curves for the same
    /// `(seed, threads)`.
    pub fn train_with_checkpoints(
        &mut self,
        policy: &CheckpointPolicy,
    ) -> Result<TrainReport, ModelError> {
        let path = policy.path.clone();
        self.train_driver(Some(policy.every_steps), move |ckpt| ckpt.save(&path))
    }

    /// A run at step 0: a fresh optimizer and RNG, and a curve that starts
    /// at the untrained model.
    fn fresh_run(&mut self, threads: usize) -> RunState {
        let mut opt = AdamOptimizer::new(self.model.config.lr);
        opt.set_weight_decay(self.opts.weight_decay);
        let rng = deepod_tensor::rng_from_seed(self.model.config.seed ^ 0x7124);
        let mae0 = self.validation_mae();
        crate::obs::registry::series_push("train.val_mae", 0, f64::from(mae0));
        RunState {
            progress: TrainProgress {
                epoch: 0,
                batches_done: 0,
                step: 0,
                rng_state: rng.state(),
                curve: vec![CurvePoint {
                    step: 0,
                    val_mae: mae0,
                    elapsed_s: 0.0,
                }],
                best_val_mae: f32::INFINITY.min(mae0),
                since_best: 0,
                final_train_loss: 0.0,
                epoch_loss: 0.0,
                epoch_batches: 0,
                elapsed_s: 0.0,
                threads,
            },
            opt,
            rng,
            best_store: self.model.store.clone(),
        }
    }

    /// The training loop, generic over the checkpoint sink.
    ///
    /// `checkpoint_every` is `None` for plain training (the sink is never
    /// called), `Some(0)` for epoch-boundary checkpoints only, `Some(n)`
    /// for every `n` steps plus epoch boundaries. `save` failures abort
    /// the run — better to stop than to keep training unprotected.
    ///
    /// The loop reads and writes only the model and one [`RunState`], so
    /// a checkpoint is that state at a step. Resume correctness rests on
    /// three invariants:
    /// * the RNG state stored in a checkpoint is the state at the *start*
    ///   of its epoch, so the resumed run re-runs the shuffle and skips
    ///   the already-applied minibatches, landing on the exact stream
    ///   position of the uninterrupted run;
    /// * the partial `epoch_loss`/`epoch_batches` accumulators are carried
    ///   across, so `final_train_loss` stays bit-identical;
    /// * checkpoint saving itself consumes no randomness and never touches
    ///   the model, so an uninterrupted run with checkpoints enabled is
    ///   bit-identical to one without.
    fn train_driver<E>(
        &mut self,
        checkpoint_every: Option<usize>,
        mut save: impl FnMut(&TrainingCheckpoint) -> Result<(), E>,
    ) -> Result<TrainReport, E> {
        let epochs = self.model.config.epochs;
        // The paper divides the LR by 5 every 2 epochs — with millions of
        // trips per epoch. At laptop scale an epoch is a few dozen steps,
        // so we scale the decay interval with the run length (÷5 happens
        // at the same *fraction* of training, ~2-3 times per run).
        let schedule = LrSchedule::StepDecay {
            base: self.model.config.lr,
            divisor: 5.0,
            every_epochs: 2usize.max(epochs.div_ceil(4)),
        };
        // deepod-lint: allow(nondeterminism) — report timing only
        let start = Instant::now();
        let elapsed = |run: &RunState| run.progress.elapsed_s + start.elapsed().as_secs_f64();
        let bs = self.model.config.batch_size.max(1);
        let threads = self.threads();
        if self.opts.verbose {
            // Widen the default gate so progress events print; an explicit
            // DEEPOD_LOG still wins (the whole point of raise vs set).
            crate::obs::raise_max_level(crate::obs::Level::Info);
        }
        crate::obs::debug(
            "train",
            "training starts",
            &[
                ("epochs", epochs.into()),
                ("batch_size", bs.into()),
                ("threads", threads.into()),
                ("train_samples", self.train_samples.len().into()),
                ("val_samples", self.val_samples.len().into()),
            ],
        );
        let mut run = match self.resumed.take() {
            Some(run) => run,
            None => self.fresh_run(threads),
        };

        'run: while run.progress.epoch < epochs {
            let epoch = run.progress.epoch;
            deepod_tensor::failpoint::hit("train::epoch");
            run.opt.set_lr(schedule.lr_at(epoch));
            // The state before the shuffle: what a mid-epoch checkpoint
            // records, so resume can re-shuffle.
            run.progress.rng_state = run.rng.state();
            // Shuffle sample order (Alg. 1 line 2).
            let mut order: Vec<usize> = (0..self.train_samples.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, run.rng.gen_range(0..=i));
            }
            let skip = run.progress.batches_done;
            for (batch_idx, chunk) in order.chunks(bs).enumerate().skip(skip) {
                deepod_tensor::failpoint::hit("train::step");
                let (batch, mut grads) = self.batch_gradients(chunk, threads);
                grads.scale(1.0 / chunk.len() as f32);
                // One extra read-only pass over the gradients; the clip
                // below recomputes its own norm, so numerics are untouched.
                let grad_norm = grads.global_norm();
                if self.opts.clip_norm > 0.0 {
                    grads.clip_global_norm(self.opts.clip_norm);
                }
                run.opt.step(&mut self.model.store, &grads);
                let p = &mut run.progress;
                p.step += 1;
                p.batches_done = batch_idx + 1;
                let step = p.step;
                let n = chunk.len() as f32;
                let step_loss = batch.loss / n;
                p.epoch_loss += step_loss;
                p.epoch_batches += 1;
                crate::obs::registry::counter_inc("train.steps");
                crate::obs::registry::observe("train.grad_norm", f64::from(grad_norm));
                crate::obs::registry::gauge_set("train.loss_last", f64::from(step_loss));
                crate::obs::registry::gauge_set("train.loss_main_last", f64::from(batch.main / n));
                crate::obs::registry::gauge_set("train.loss_aux_last", f64::from(batch.aux / n));
                crate::obs::debug(
                    "train",
                    "step",
                    &[
                        ("step", step.into()),
                        ("loss", step_loss.into()),
                        ("loss_main", (batch.main / n).into()),
                        ("loss_aux", (batch.aux / n).into()),
                        ("grad_norm", grad_norm.into()),
                    ],
                );

                if self.opts.eval_every > 0 && step.is_multiple_of(self.opts.eval_every) {
                    let mae = self.validation_mae();
                    let elapsed_s = elapsed(&run);
                    let p = &mut run.progress;
                    p.curve.push(CurvePoint {
                        step,
                        val_mae: mae,
                        elapsed_s,
                    });
                    crate::obs::registry::counter_inc("train.evals");
                    crate::obs::registry::series_push("train.val_mae", step as u64, f64::from(mae));
                    crate::obs::registry::gauge_set("train.val_mae_last", f64::from(mae));
                    crate::obs::info(
                        "train",
                        "validation",
                        &[("step", step.into()), ("val_mae_s", mae.into())],
                    );
                    if mae < p.best_val_mae {
                        p.best_val_mae = mae;
                        p.since_best = 0;
                        run.best_store = self.model.store.clone();
                    } else {
                        p.since_best += 1;
                        if self.opts.patience > 0 && p.since_best >= self.opts.patience {
                            break 'run;
                        }
                    }
                }

                if checkpoint_every.is_some_and(|every| every > 0 && step.is_multiple_of(every)) {
                    save(&run.checkpoint(&self.model, elapsed(&run)))?;
                }
            }
            let mae = self.validation_mae();
            let elapsed_s = elapsed(&run);
            let p = &mut run.progress;
            p.final_train_loss = p.epoch_loss / p.epoch_batches.max(1) as f32;
            // Per-epoch evaluation point.
            p.curve.push(CurvePoint {
                step: p.step,
                val_mae: mae,
                elapsed_s,
            });
            if mae < p.best_val_mae {
                p.best_val_mae = mae;
                run.best_store = self.model.store.clone();
            }
            crate::obs::registry::counter_inc("train.epochs");
            crate::obs::registry::series_push(
                "train.epoch_loss",
                epoch as u64,
                f64::from(p.final_train_loss),
            );
            crate::obs::registry::series_push("train.val_mae", p.step as u64, f64::from(mae));
            crate::obs::registry::gauge_set("train.val_mae_last", f64::from(mae));
            crate::obs::registry::gauge_set("train.best_val_mae", f64::from(p.best_val_mae));
            crate::obs::info(
                "train",
                "epoch complete",
                &[
                    ("epoch", epoch.into()),
                    ("train_loss", p.final_train_loss.into()),
                    ("val_mae_s", mae.into()),
                    ("best_val_mae_s", p.best_val_mae.into()),
                ],
            );

            // Epoch boundary: the next epoch with nothing applied yet, and
            // the RNG as it stands now, which *is* the start-of-next-epoch
            // state (the next iteration shuffles from here).
            p.epoch += 1;
            p.batches_done = 0;
            p.epoch_loss = 0.0;
            p.epoch_batches = 0;
            p.rng_state = run.rng.state();
            if checkpoint_every.is_some() {
                save(&run.checkpoint(&self.model, elapsed(&run)))?;
            }
        }

        let total_time_s = elapsed(&run);
        // Restore the best validation checkpoint (early-stopping model
        // selection; the paper fine-tunes on validation data, §6.1).
        self.model.store = run.best_store;
        let p = run.progress;
        // Fall back to a zero point for the degenerate empty curve.
        let conv = convergence_point(&p.curve).copied().unwrap_or(CurvePoint {
            step: 0,
            elapsed_s: 0.0,
            val_mae: p.best_val_mae,
        });
        Ok(TrainReport {
            best_val_mae: p.best_val_mae,
            convergence_step: conv.step,
            convergence_time_s: conv.elapsed_s,
            total_steps: p.step,
            total_time_s,
            final_train_loss: p.final_train_loss,
            curve: p.curve,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::{EmbeddingInit, Variant};
    use deepod_roadnet::CityProfile;
    use deepod_traj::{DatasetBuilder, DatasetConfig};

    fn tiny_cfg() -> DeepOdConfig {
        DeepOdConfig {
            init: EmbeddingInit::Random,
            ds: 6,
            dt_dim: 6,
            d1m: 8,
            d2m: 6,
            d3m: 8,
            d4m: 6,
            d5m: 8,
            d6m: 6,
            d7m: 8,
            d9m: 8,
            dh: 8,
            dtraf: 4,
            epochs: 2,
            batch_size: 8,
            ..DeepOdConfig::default()
        }
    }

    #[test]
    fn training_reduces_validation_mae() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 150));
        let mut trainer = Trainer::new(&ds, tiny_cfg(), TrainOptions::default()).expect("trainer");
        let before = trainer.validation_mae();
        let report = trainer.train();
        assert!(report.best_val_mae.is_finite());
        assert!(
            report.best_val_mae <= before,
            "training should not worsen MAE: {before} -> {}",
            report.best_val_mae
        );
        assert!(report.total_steps > 0);
        assert!(!report.curve.is_empty());
        // Curve steps monotone.
        for w in report.curve.windows(2) {
            assert!(w[0].step <= w[1].step);
        }
        assert!(report.convergence_step <= report.total_steps);
    }

    #[test]
    fn convergence_is_the_first_point_within_two_percent_of_the_best() {
        let curve: Vec<CurvePoint> = [(0, 100.0), (10, 50.0), (20, 50.5), (30, 49.5)]
            .iter()
            .map(|&(step, val_mae)| CurvePoint {
                step,
                val_mae,
                elapsed_s: step as f64,
            })
            .collect();
        // Best 49.5 → threshold 50.49: step 10 (50.0) is the first within it.
        assert_eq!(convergence_point(&curve).map(|p| p.step), Some(10));
        assert_eq!(convergence_point(&curve[..1]).map(|p| p.step), Some(0));
        assert!(convergence_point(&[]).is_none());
    }

    #[test]
    fn nst_trains_too() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 80));
        let mut cfg = tiny_cfg();
        cfg.variant = Variant::NoTrajectory;
        cfg.epochs = 1;
        let mut trainer = Trainer::new(&ds, cfg, TrainOptions::default()).expect("trainer");
        let report = trainer.train();
        assert!(report.best_val_mae.is_finite());
    }

    #[test]
    fn early_stopping_respects_patience() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let mut cfg = tiny_cfg();
        cfg.epochs = 50; // would be huge without early stop
        let opts = TrainOptions {
            eval_every: 2,
            patience: 3,
            ..Default::default()
        };
        let mut trainer = Trainer::new(&ds, cfg, opts).expect("trainer");
        let report = trainer.train();
        // Early stopping must have cut the run far short of 50 epochs.
        let steps_per_epoch = ds.train.len().div_ceil(8);
        assert!(
            report.total_steps < 50 * steps_per_epoch,
            "ran {} steps",
            report.total_steps
        );
    }

    #[test]
    fn parallel_training_is_deterministic() {
        // Two runs with the same seed and the same thread count must
        // produce bit-identical loss curves: gradients are merged by a
        // deterministic tree reduction, losses summed in span order.
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 80));
        let run = |threads: usize| {
            let opts = TrainOptions {
                threads,
                ..Default::default()
            };
            let mut trainer = Trainer::new(&ds, tiny_cfg(), opts).expect("trainer");
            trainer.train()
        };
        for threads in [1, 2] {
            let a = run(threads);
            let b = run(threads);
            assert_eq!(a.curve.len(), b.curve.len(), "threads={threads}");
            for (pa, pb) in a.curve.iter().zip(&b.curve) {
                assert_eq!(pa.step, pb.step, "threads={threads}");
                assert_eq!(
                    pa.val_mae.to_bits(),
                    pb.val_mae.to_bits(),
                    "threads={threads} step {}: {} vs {}",
                    pa.step,
                    pa.val_mae,
                    pb.val_mae
                );
            }
            assert_eq!(a.final_train_loss.to_bits(), b.final_train_loss.to_bits());
        }
    }

    #[test]
    fn parallel_prediction_matches_serial() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 80));
        let mut cfg = tiny_cfg();
        cfg.epochs = 1;
        let mut trainer = Trainer::new(
            &ds,
            cfg,
            TrainOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .expect("trainer");
        trainer.train();
        let serial = trainer.predict_orders(&ds.test);
        let serial_mae = trainer.validation_mae();
        trainer.opts.threads = 3;
        let parallel = trainer.predict_orders(&ds.test);
        let parallel_mae = trainer.validation_mae();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.map(f32::to_bits), p.map(f32::to_bits));
        }
        // Individual predictions are bit-identical; the MAE sum is only
        // reassociated across spans, so it may differ in the last ulps.
        let tol = 1e-4 * serial_mae.abs().max(1.0);
        assert!(
            (serial_mae - parallel_mae).abs() <= tol,
            "{serial_mae} vs {parallel_mae}"
        );
    }

    /// Bit-level equality of everything deterministic in two reports
    /// (wall-clock fields excluded by design).
    fn assert_reports_bit_equal(a: &TrainReport, b: &TrainReport) {
        assert_eq!(a.curve.len(), b.curve.len());
        for (pa, pb) in a.curve.iter().zip(&b.curve) {
            assert_eq!(pa.step, pb.step);
            assert_eq!(
                pa.val_mae.to_bits(),
                pb.val_mae.to_bits(),
                "step {}: {} vs {}",
                pa.step,
                pa.val_mae,
                pb.val_mae
            );
        }
        assert_eq!(a.best_val_mae.to_bits(), b.best_val_mae.to_bits());
        assert_eq!(a.final_train_loss.to_bits(), b.final_train_loss.to_bits());
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.convergence_step, b.convergence_step);
    }

    /// Resumes from one mid-epoch and one epoch-boundary checkpoint at
    /// `threads` and checks both against the uninterrupted run.
    fn check_resume_matches_uninterrupted(threads: usize) {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 80));
        let opts = || TrainOptions {
            threads,
            eval_every: 3,
            ..Default::default()
        };

        let baseline = Trainer::new(&ds, tiny_cfg(), opts())
            .expect("trainer")
            .train();

        // An identical run that also *writes* checkpoints must not drift:
        // collect every snapshot it would persist.
        let mut ckpts: Vec<TrainingCheckpoint> = Vec::new();
        let mut collector = Trainer::new(&ds, tiny_cfg(), opts()).expect("trainer");
        let with_ckpts: Result<TrainReport, std::convert::Infallible> =
            collector.train_driver(Some(2), |c| {
                ckpts.push(c.clone());
                Ok(())
            });
        let with_ckpts = match with_ckpts {
            Ok(r) => r,
            Err(e) => match e {},
        };
        assert_reports_bit_equal(&baseline, &with_ckpts);

        // Resume from one mid-epoch and one epoch-boundary checkpoint;
        // both must reproduce the uninterrupted run exactly.
        let mid = ckpts
            .iter()
            .find(|c| c.progress.batches_done > 0)
            .expect("a mid-epoch checkpoint");
        let boundary = ckpts
            .iter()
            .find(|c| c.progress.batches_done == 0 && c.progress.epoch < tiny_cfg().epochs)
            .expect("an epoch-boundary checkpoint");
        for (label, ckpt) in [("mid-epoch", mid), ("epoch-boundary", boundary)] {
            let report = Trainer::resume(&ds, ckpt.clone(), opts())
                .expect("matching threads")
                .train();
            assert_eq!(
                baseline.curve.len(),
                report.curve.len(),
                "threads={threads} {label}: curve length"
            );
            assert_reports_bit_equal(&baseline, &report);
        }
    }

    #[test]
    fn resume_from_any_checkpoint_matches_uninterrupted() {
        // One thread and two take the same span path; both must resume.
        for threads in [1, 2] {
            check_resume_matches_uninterrupted(threads);
        }
    }

    #[test]
    fn resume_rejects_mismatched_config_or_threads() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 60));
        let opts = |threads| TrainOptions {
            threads,
            ..Default::default()
        };
        let mut ckpts: Vec<TrainingCheckpoint> = Vec::new();
        let mut t = Trainer::new(&ds, tiny_cfg(), opts(1)).expect("trainer");
        let _: Result<TrainReport, std::convert::Infallible> = t.train_driver(Some(0), |c| {
            ckpts.push(c.clone());
            Ok(())
        });
        let ckpt = ckpts.first().expect("boundary checkpoint").clone();

        // The config comes from the checkpoint, so it can only be invalid,
        // never mismatched.
        let mut invalid = ckpt.clone();
        invalid.model.config.ds = 0;
        assert!(matches!(
            Trainer::resume(&ds, invalid, opts(1)),
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            Trainer::resume(&ds, ckpt, opts(7)),
            Err(ModelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn estimation_after_training_tracks_labels() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 150));
        let mut trainer = Trainer::new(&ds, tiny_cfg(), TrainOptions::default()).expect("trainer");
        trainer.train();
        // MAE on test data should beat a degenerate "predict zero" baseline
        // by a wide margin (i.e. be well under the mean travel time).
        let mean_y = ds.mean_train_travel_time() as f32;
        let preds = trainer.predict_orders(&ds.test);
        let mut mae = 0.0f32;
        let mut n = 0;
        for (p, o) in preds.iter().zip(&ds.test) {
            if let Some(p) = p {
                mae += (p - o.travel_time as f32).abs();
                n += 1;
            }
        }
        assert!(n > 0);
        mae /= n as f32;
        assert!(
            mae < mean_y,
            "test MAE {mae} should beat predict-zero ({mean_y})"
        );
    }
}
