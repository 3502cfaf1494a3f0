//! Same-named functions with unguarded indexes that no call reaches once
//! calls resolve by kind: a free `scale` (rule 2), a free `helper` and a
//! method `helper` (rule 3), and a free `pick` outside `util.rs`.

fn scale(values: &[f64]) -> f64 {
    values[5]
}

fn helper(values: &[f64]) -> f64 {
    values[9]
}

fn pick(values: &[f64]) -> f64 {
    values[6]
}

struct Probe {
    values: Vec<f64>,
}

impl Probe {
    fn helper(&self) -> f64 {
        self.values[7]
    }
}
