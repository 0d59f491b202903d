//! Encoded datasets: a schema plus dense rows and labels.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::instance::{Instance, Label};
use crate::schema::Schema;

/// An encoded dataset — the unit every model and explainer in the
/// workspace consumes.
///
/// The schema is reference-counted so that train/test splits and sliding
/// windows share it without copying.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    schema: Arc<Schema>,
    instances: Vec<Instance>,
    labels: Vec<Label>,
    label_names: Vec<String>,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics if `instances` and `labels` lengths differ, or any instance
    /// width differs from the schema.
    pub fn new(name: String, schema: Schema, instances: Vec<Instance>, labels: Vec<Label>) -> Self {
        assert_eq!(instances.len(), labels.len(), "instances/labels mismatch");
        let n = schema.n_features();
        assert!(
            instances.iter().all(|x| x.len() == n),
            "instance width mismatch"
        );
        Self {
            name,
            schema: Arc::new(schema),
            instances,
            labels,
            label_names: Vec::new(),
        }
    }

    /// Creates a dataset sharing an existing schema handle.
    pub fn with_shared_schema(
        name: String,
        schema: Arc<Schema>,
        instances: Vec<Instance>,
        labels: Vec<Label>,
    ) -> Self {
        assert_eq!(instances.len(), labels.len(), "instances/labels mismatch");
        Self {
            name,
            schema,
            instances,
            labels,
            label_names: Vec::new(),
        }
    }

    /// Attaches label display names.
    pub fn with_label_names(mut self, names: Vec<String>) -> Self {
        self.label_names = names;
        self
    }

    /// Label display names, indexed by label code (may be empty).
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared schema handle.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Takes the dataset apart without copying a row: the shared schema,
    /// the instances and their aligned labels.
    pub fn into_parts(self) -> (Arc<Schema>, Vec<Instance>, Vec<Label>) {
        (self.schema, self.instances, self.labels)
    }

    /// All instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// All labels, aligned with [`Dataset::instances`].
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Instance at `row`.
    pub fn instance(&self, row: usize) -> &Instance {
        &self.instances[row]
    }

    /// Label at `row`.
    pub fn label(&self, row: usize) -> Label {
        self.labels[row]
    }

    /// Display name of a label, falling back to `L<code>`.
    pub fn label_name(&self, label: Label) -> String {
        self.label_names
            .get(label.0 as usize)
            .cloned()
            .unwrap_or_else(|| label.to_string())
    }

    /// Distinct labels present, sorted.
    pub fn distinct_labels(&self) -> Vec<Label> {
        let mut ls: Vec<Label> = self.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Iterates `(instance, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Instance, Label)> + '_ {
        self.instances.iter().zip(self.labels.iter().copied())
    }

    /// Splits into `(train, test)` with `train_ratio` of rows (shuffled with
    /// `rng`) in the train part — the paper's 70/30 protocol.
    pub fn split(&self, train_ratio: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_ratio), "ratio out of range");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let cut = ((self.len() as f64) * train_ratio).round() as usize;
        let take = |rows: &[usize]| {
            let instances = rows.iter().map(|&r| self.instances[r].clone()).collect();
            let labels = rows.iter().map(|&r| self.labels[r]).collect();
            Dataset::with_shared_schema(self.name.clone(), self.schema_arc(), instances, labels)
                .with_label_names(self.label_names.clone())
        };
        (take(&order[..cut]), take(&order[cut..]))
    }

    /// A copy containing only rows whose index is in `rows`.
    pub fn select(&self, rows: &[usize]) -> Dataset {
        let instances = rows.iter().map(|&r| self.instances[r].clone()).collect();
        let labels = rows.iter().map(|&r| self.labels[r]).collect();
        Dataset::with_shared_schema(self.name.clone(), self.schema_arc(), instances, labels)
            .with_label_names(self.label_names.clone())
    }

    /// A copy containing the first `n` rows (used by the `|I|` context-size
    /// sweeps).
    pub fn head(&self, n: usize) -> Dataset {
        let rows: Vec<usize> = (0..n.min(self.len())).collect();
        self.select(&rows)
    }

    /// Splits the dataset into `k` consecutive, (nearly) equal parts — used
    /// by the dynamic-model experiments (App. B, Exp-4).
    pub fn chunks(&self, k: usize) -> Vec<Dataset> {
        assert!(k > 0, "k must be positive");
        let per = self.len().div_ceil(k);
        (0..k)
            .map(|i| {
                let lo = (i * per).min(self.len());
                let hi = ((i + 1) * per).min(self.len());
                let rows: Vec<usize> = (lo..hi).collect();
                self.select(&rows)
            })
            .collect()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the instance width differs from the schema.
    pub fn push(&mut self, x: Instance, y: Label) {
        assert_eq!(x.len(), self.schema.n_features(), "instance width mismatch");
        self.instances.push(x);
        self.labels.push(y);
    }

    /// Replaces all labels (used when re-labeling a context with model
    /// predictions).
    ///
    /// # Panics
    /// Panics if the length differs.
    pub fn set_labels(&mut self, labels: Vec<Label>) {
        assert_eq!(labels.len(), self.instances.len(), "label count mismatch");
        self.labels = labels;
    }

    /// Empirical marginal distribution of feature `f`: for each code, the
    /// number of rows carrying it. Used by the perturbation samplers of
    /// LIME/SHAP/Anchor.
    pub fn marginal(&self, f: usize) -> Vec<u32> {
        let mut counts = vec![0u32; self.schema.feature(f).cardinality()];
        for x in &self.instances {
            let c = x[f] as usize;
            if c < counts.len() {
                counts[c] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FeatureDef;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let schema = Schema::new(vec![
            FeatureDef::categorical("a", &["x", "y"]),
            FeatureDef::categorical("b", &["p", "q", "r"]),
        ]);
        let instances = (0..10).map(|i| Instance::new(vec![i % 2, i % 3])).collect();
        let labels = (0..10).map(|i| Label(u32::from(i % 2 == 0))).collect();
        Dataset::new("toy".into(), schema, instances, labels)
            .with_label_names(vec!["neg".into(), "pos".into()])
    }

    #[test]
    fn split_partitions_rows() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let (tr, te) = ds.split(0.7, &mut rng);
        assert_eq!(tr.len(), 7);
        assert_eq!(te.len(), 3);
        assert_eq!(tr.schema().n_features(), 2);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let ds = toy();
        let (a1, _) = ds.split(0.5, &mut StdRng::seed_from_u64(3));
        let (a2, _) = ds.split(0.5, &mut StdRng::seed_from_u64(3));
        assert_eq!(a1.instances(), a2.instances());
    }

    #[test]
    fn chunks_cover_everything() {
        let ds = toy();
        let parts = ds.chunks(3);
        assert_eq!(parts.iter().map(Dataset::len).sum::<usize>(), ds.len());
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn marginal_counts_codes() {
        let ds = toy();
        let m = ds.marginal(0);
        assert_eq!(m.iter().sum::<u32>(), 10);
        assert_eq!(m, vec![5, 5]);
    }

    #[test]
    fn label_names_render() {
        let ds = toy();
        assert_eq!(ds.label_name(Label(1)), "pos");
        assert_eq!(ds.label_name(Label(9)), "L9");
    }

    #[test]
    fn head_truncates() {
        let ds = toy();
        assert_eq!(ds.head(4).len(), 4);
        assert_eq!(ds.head(100).len(), 10);
    }

    #[test]
    fn distinct_labels_sorted() {
        let ds = toy();
        assert_eq!(ds.distinct_labels(), vec![Label(0), Label(1)]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_rejects_wrong_width() {
        let mut ds = toy();
        ds.push(Instance::new(vec![0]), Label(0));
    }
}
