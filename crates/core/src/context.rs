//! Explanation contexts — the set `I` that relative keys are defined
//! against.
//!
//! A context is a collection of instances together with their *recorded
//! predictions*. During model serving these pairs are available at the
//! client for free, which is what makes CCE model-access-free: no method in
//! this crate ever calls a model.

use std::sync::Arc;

use cce_dataset::{Dataset, Instance, Label, Schema};
use cce_model::Model;

use crate::alpha::Alpha;
use crate::error::ExplainError;

/// A context `I`: instances and their predictions, over a shared schema.
#[derive(Debug, Clone)]
pub struct Context {
    schema: Arc<Schema>,
    instances: Vec<Instance>,
    predictions: Vec<Label>,
}

impl Context {
    /// Creates a context from parts.
    ///
    /// # Panics
    /// Panics if lengths disagree or an instance width differs from the
    /// schema.
    pub fn new(schema: Arc<Schema>, instances: Vec<Instance>, predictions: Vec<Label>) -> Self {
        assert_eq!(
            instances.len(),
            predictions.len(),
            "instances/predictions mismatch"
        );
        let n = schema.n_features();
        assert!(
            instances.iter().all(|x| x.len() == n),
            "instance width mismatch"
        );
        Self {
            schema,
            instances,
            predictions,
        }
    }

    /// Builds a context by recording `model`'s predictions over the
    /// instances of `ds` — simulating what a client observes during model
    /// serving. (This is the *only* place in the workspace where CCE-side
    /// code touches a model, and it stands in for the serving loop, not
    /// for the explainer.)
    pub fn from_model<M: Model + ?Sized>(ds: &Dataset, model: &M) -> Self {
        let predictions = model.predict_all(ds.instances());
        Self::new(ds.schema_arc(), ds.instances().to_vec(), predictions)
    }

    /// Uses the dataset's recorded labels as the predictions — the hybrid
    /// ML + human-in-the-loop workflow of §3.1 benefit (d), where decisions
    /// are not produced by any single model.
    pub fn from_recorded(ds: &Dataset) -> Self {
        Self::new(
            ds.schema_arc(),
            ds.instances().to_vec(),
            ds.labels().to_vec(),
        )
    }

    /// An empty context over `schema` (online mode starts here).
    pub fn empty(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            instances: Vec::new(),
            predictions: Vec::new(),
        }
    }

    /// Number of instances `|I|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the context has no instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared schema handle.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Instance at `row`.
    #[inline]
    pub fn instance(&self, row: usize) -> &Instance {
        &self.instances[row]
    }

    /// Recorded prediction at `row`.
    #[inline]
    pub fn prediction(&self, row: usize) -> Label {
        self.predictions[row]
    }

    /// All instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// All predictions.
    pub fn predictions(&self) -> &[Label] {
        &self.predictions
    }

    /// Appends an `(instance, prediction)` pair.
    ///
    /// # Errors
    /// Returns [`ExplainError::WidthMismatch`] when the instance width
    /// differs from the schema.
    pub fn push(&mut self, x: Instance, pred: Label) -> Result<(), ExplainError> {
        if x.len() != self.schema.n_features() {
            return Err(ExplainError::WidthMismatch {
                expected: self.schema.n_features(),
                got: x.len(),
            });
        }
        self.instances.push(x);
        self.predictions.push(pred);
        Ok(())
    }

    /// Validates a target row.
    pub(crate) fn check_target(&self, target: usize) -> Result<(), ExplainError> {
        if self.is_empty() {
            return Err(ExplainError::EmptyContext);
        }
        if target >= self.len() {
            return Err(ExplainError::TargetOutOfRange {
                target,
                len: self.len(),
            });
        }
        Ok(())
    }

    /// Rows violating the rule semantics of `feats` for `target`: they
    /// agree with the target on every feature of `feats` yet carry a
    /// different prediction.
    ///
    /// This is `|⋂_{Aⱼ∈E} I[Aⱼ = x₀[Aⱼ]] ∩ I^c_{M(x₀)}|` — the left side
    /// of SRK's termination condition.
    pub fn violator_rows(&self, feats: &[usize], target: usize) -> Vec<u32> {
        let x0 = &self.instances[target];
        let p0 = self.predictions[target];
        (0..self.len() as u32)
            .filter(|&r| {
                let r = r as usize;
                self.predictions[r] != p0 && self.instances[r].agrees_on(x0, feats)
            })
            .collect()
    }

    /// Number of violators (see [`Context::violator_rows`]).
    pub fn count_violators(&self, feats: &[usize], target: usize) -> usize {
        let x0 = &self.instances[target];
        let p0 = self.predictions[target];
        self.instances
            .iter()
            .zip(&self.predictions)
            .filter(|(x, p)| **p != p0 && x.agrees_on(x0, feats))
            .count()
    }

    /// Whether `feats` is an α-conformant key for the target row (§3.1):
    /// the number of violators is within the tolerance `⌊(1 - α)·|I|⌋`.
    pub fn is_alpha_key(&self, feats: &[usize], target: usize, alpha: Alpha) -> bool {
        self.count_violators(feats, target) <= alpha.tolerance(self.len())
    }

    /// Rows that agree with the target on `feats` *and* share its
    /// prediction — the coverage set `D(E)` used by the recall metric
    /// (§7.1(c)).
    pub fn covered_rows(&self, feats: &[usize], target: usize) -> Vec<u32> {
        let x0 = &self.instances[target];
        let p0 = self.predictions[target];
        (0..self.len() as u32)
            .filter(|&r| {
                let r = r as usize;
                self.predictions[r] == p0 && self.instances[r].agrees_on(x0, feats)
            })
            .collect()
    }

    /// Materializes the context as a [`Dataset`] whose labels are the
    /// recorded predictions — the persistence path (`cce_dataset::csv`
    /// round-trips it, which is what the `cce` CLI consumes).
    pub fn to_dataset(&self, name: &str) -> Dataset {
        Dataset::with_shared_schema(
            name.to_string(),
            self.schema_arc(),
            self.instances.clone(),
            self.predictions.clone(),
        )
    }

    /// Partitions the rows into `(instance, prediction)` equivalence
    /// classes: `reps[c]` is the first row of class `c` (classes are in
    /// first-occurrence order) and `class_of[r]` maps every row to its
    /// class.
    ///
    /// Every explanation algorithm in this crate depends on the target
    /// only through its instance values and prediction, so rows of one
    /// class provably receive identical keys — the batch engine explains
    /// each class once and fans the key out (duplicate-row memoization).
    pub fn duplicate_classes(&self) -> (Vec<u32>, Vec<u32>) {
        let mut reps: Vec<u32> = Vec::new();
        let mut class_of: Vec<u32> = Vec::with_capacity(self.len());
        let mut seen: std::collections::HashMap<(&Instance, Label), u32> =
            std::collections::HashMap::with_capacity(self.len());
        for (r, (x, &p)) in self.instances.iter().zip(&self.predictions).enumerate() {
            let id = *seen.entry((x, p)).or_insert_with(|| {
                reps.push(r as u32);
                (reps.len() - 1) as u32
            });
            class_of.push(id);
        }
        (reps, class_of)
    }

    /// The largest α for which `feats` is an α-conformant key for the
    /// target — the *precision* of the explanation over this context
    /// (§7.1(b)).
    pub fn max_alpha(&self, feats: &[usize], target: usize) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        let v = self.count_violators(feats, target);
        1.0 - v as f64 / self.len() as f64
    }
}

impl crate::persist::PersistState for Context {
    const TYPE_TAG: u8 = 1;

    fn encode_state(&self, enc: &mut crate::persist::Enc) {
        enc.schema(&self.schema);
        enc.usize(self.instances.len());
        for x in &self.instances {
            enc.instance(x);
        }
        enc.usize(self.predictions.len());
        for &p in &self.predictions {
            enc.label(p);
        }
    }

    fn decode_state(
        dec: &mut crate::persist::Dec<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        let schema = Arc::new(dec.schema()?);
        let n = schema.n_features();
        let n_inst = dec.len()?;
        let mut instances = Vec::with_capacity(n_inst);
        for _ in 0..n_inst {
            let x = dec.instance()?;
            if x.len() != n {
                return Err(PersistError::corrupt("instance width mismatch"));
            }
            instances.push(x);
        }
        let n_pred = dec.len()?;
        if n_pred != instances.len() {
            return Err(PersistError::corrupt("instances/predictions mismatch"));
        }
        let mut predictions = Vec::with_capacity(n_pred);
        for _ in 0..n_pred {
            predictions.push(dec.label()?);
        }
        Ok(Self {
            schema,
            instances,
            predictions,
        })
    }
}

impl crate::persist::Replayable for Context {
    fn replay(&mut self, x: Instance, pred: Label) {
        let _ = self.push(x, pred);
    }
}

#[cfg(test)]
pub(crate) use tests::figure2;

#[cfg(test)]
mod tests {
    use super::*;
    use cce_dataset::FeatureDef;

    /// The paper's Figure 2 context: 7 loan instances over
    /// (Gender, Income, Credit, Dependents).
    pub(crate) fn figure2() -> (Context, usize) {
        let schema = Arc::new(Schema::new(vec![
            FeatureDef::categorical("Gender", &["Male", "Female"]),
            FeatureDef::categorical("Income", &["1-2K", "3-4K", "5-6K"]),
            FeatureDef::categorical("Credit", &["poor", "good"]),
            FeatureDef::categorical("Dependents", &["0", "1", "2"]),
        ]));
        let rows: Vec<(Vec<u32>, u32)> = vec![
            (vec![0, 1, 0, 1], 0), // x0 Male 3-4K poor 1 Denied
            (vec![0, 2, 0, 1], 1), // x1 Male 5-6K poor 1 Approved
            (vec![1, 1, 0, 2], 0), // x2 Female 3-4K poor 2 Denied
            (vec![0, 1, 0, 1], 0), // x3 Male 3-4K poor 1 Denied
            (vec![0, 0, 0, 1], 0), // x4 Male 1-2K poor 1 Denied
            (vec![0, 1, 1, 0], 1), // x5 Male 3-4K good 0 Approved
            (vec![0, 1, 1, 1], 1), // x6 Male 3-4K good 1 Approved
        ];
        let (xs, ps): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let ctx = Context::new(
            schema,
            xs.into_iter().map(Instance::new).collect(),
            ps.into_iter().map(Label).collect(),
        );
        (ctx, 0)
    }

    #[test]
    fn example3_income_credit_is_a_key() {
        let (ctx, x0) = figure2();
        let income = 1;
        let credit = 2;
        assert!(ctx.is_alpha_key(&[income, credit], x0, Alpha::ONE));
        assert_eq!(ctx.count_violators(&[income, credit], x0), 0);
    }

    #[test]
    fn example4_credit_alone_is_six_sevenths_conformant() {
        let (ctx, x0) = figure2();
        let credit = 2;
        // x1 agrees on Credit=poor but is Approved: one violator.
        assert_eq!(ctx.count_violators(&[credit], x0), 1);
        assert!(!ctx.is_alpha_key(&[credit], x0, Alpha::ONE));
        assert!(ctx.is_alpha_key(&[credit], x0, Alpha::new(6.0 / 7.0).unwrap()));
        assert!((ctx.max_alpha(&[credit], x0) - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_feature_set_violators_are_all_differing() {
        let (ctx, x0) = figure2();
        assert_eq!(ctx.count_violators(&[], x0), 3); // x1, x5, x6 approved
    }

    #[test]
    fn covered_rows_contain_target() {
        let (ctx, x0) = figure2();
        let covered = ctx.covered_rows(&[1, 2], x0);
        assert!(covered.contains(&0));
        assert!(covered.contains(&3), "x3 is identical to x0");
        assert!(!covered.contains(&1));
    }

    #[test]
    fn push_and_width_check() {
        let (mut ctx, _) = figure2();
        assert!(ctx.push(Instance::new(vec![0, 0, 0, 0]), Label(0)).is_ok());
        assert_eq!(ctx.len(), 8);
        let err = ctx.push(Instance::new(vec![0]), Label(0)).unwrap_err();
        assert!(matches!(
            err,
            ExplainError::WidthMismatch {
                expected: 4,
                got: 1
            }
        ));
    }

    #[test]
    fn target_validation() {
        let (ctx, _) = figure2();
        assert!(ctx.check_target(6).is_ok());
        assert!(matches!(
            ctx.check_target(7),
            Err(ExplainError::TargetOutOfRange { target: 7, len: 7 })
        ));
        let empty = Context::empty(ctx.schema_arc());
        assert!(matches!(
            empty.check_target(0),
            Err(ExplainError::EmptyContext)
        ));
    }

    #[test]
    fn duplicate_classes_partition_by_instance_and_prediction() {
        let (mut ctx, _) = figure2();
        // x0 and x3 are identical rows with identical predictions; add a
        // flipped-prediction twin of x0, which must form its own class.
        let twin = ctx.instance(0).clone();
        ctx.push(twin, Label(1)).unwrap();
        let (reps, class_of) = ctx.duplicate_classes();
        assert_eq!(class_of.len(), ctx.len());
        assert_eq!(class_of[0], class_of[3], "identical rows share a class");
        assert_ne!(class_of[0], class_of[7], "flipped twin is a new class");
        assert_eq!(reps.len(), 7, "7 rows + 1 duplicate + 1 new class");
        for (c, &rep) in reps.iter().enumerate() {
            assert_eq!(
                class_of[rep as usize] as usize, c,
                "rep belongs to its class"
            );
            let first = class_of.iter().position(|&x| x as usize == c).unwrap();
            assert_eq!(first as u32, rep, "rep is the first occurrence");
        }
    }

    #[test]
    fn from_recorded_uses_labels() {
        let schema = Schema::new(vec![FeatureDef::categorical("a", &["0", "1"])]);
        let ds = Dataset::new(
            "t".into(),
            schema,
            vec![Instance::new(vec![0]), Instance::new(vec![1])],
            vec![Label(0), Label(1)],
        );
        let ctx = Context::from_recorded(&ds);
        assert_eq!(ctx.prediction(1), Label(1));
    }
}
