//! Tasks: groups of threads funded through a shared currency.
//!
//! In the paper's prototype (Figure 3) every Mach task has a currency
//! funded from its user's currency, and each of its threads is funded by a
//! ticket denominated in the task currency. [`TaskBuilder`] packages that
//! pattern for [`crate::sched::lottery::LotteryPolicy`] kernels: create a
//! task, give it backing, spawn member threads with intra-task ticket
//! splits, and the inter-task shares stay insulated no matter how many
//! threads each task runs.

use lottery_core::currency::CurrencyId;
use lottery_core::errors::Result;

use crate::kernel::Kernel;
use crate::sched::lottery::{FundingSpec, LotteryPolicy};
use crate::thread::ThreadId;
use crate::workload::Workload;

/// A task: a currency plus its member threads.
#[derive(Debug, Clone)]
pub struct Task {
    name: String,
    currency: CurrencyId,
    members: Vec<ThreadId>,
}

impl Task {
    /// The task's currency.
    pub fn currency(&self) -> CurrencyId {
        self.currency
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Member threads, in spawn order.
    pub fn members(&self) -> &[ThreadId] {
        &self.members
    }
}

/// Builder for tasks on a lottery-scheduled kernel.
pub struct TaskBuilder<'a> {
    kernel: &'a mut Kernel<LotteryPolicy>,
}

impl<'a> TaskBuilder<'a> {
    /// Wraps a kernel for task construction.
    pub fn new(kernel: &'a mut Kernel<LotteryPolicy>) -> Self {
        Self { kernel }
    }

    /// Creates a task whose currency is backed by `funding` tickets of
    /// `parent` (use `LotteryPolicy::base_currency` for top-level
    /// tasks).
    pub fn task(&mut self, name: &str, parent: CurrencyId, funding: u64) -> Result<Task> {
        let currency = self
            .kernel
            .policy_mut()
            .create_subcurrency(name, parent, funding)?;
        Ok(Task {
            name: name.to_string(),
            currency,
            members: Vec::new(),
        })
    }

    /// Spawns a thread inside `task`, holding `tickets` of the task
    /// currency.
    pub fn thread(
        &mut self,
        task: &mut Task,
        name: &str,
        workload: Box<dyn Workload>,
        tickets: u64,
    ) -> ThreadId {
        let tid = self.kernel.spawn(
            format!("{}:{}", task.name, name),
            workload,
            FundingSpec::new(task.currency, tickets),
        );
        task.members.push(tid);
        tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::workload::ComputeBound;

    /// Figure 3's property: tasks split by their funding regardless of
    /// how many threads each runs.
    #[test]
    fn thread_count_does_not_leak_between_tasks() {
        let policy = LotteryPolicy::new(3);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let mut b = TaskBuilder::new(&mut kernel);
        let mut one = b.task("one", base, 1000).unwrap();
        let mut many = b.task("many", base, 1000).unwrap();
        let solo = b.thread(&mut one, "solo", Box::new(ComputeBound), 100);
        let mut crowd = Vec::new();
        for i in 0..5 {
            crowd.push(b.thread(&mut many, &format!("w{i}"), Box::new(ComputeBound), 100));
        }
        kernel.run_until(SimTime::from_secs(200));
        let solo_cpu = kernel.metrics().cpu_us(solo) as f64;
        let crowd_cpu: u64 = crowd.iter().map(|&t| kernel.metrics().cpu_us(t)).sum();
        // Equal task funding -> equal aggregate CPU, despite 1 vs 5
        // threads.
        let ratio = solo_cpu / crowd_cpu as f64;
        assert!((ratio - 1.0).abs() < 0.1, "task ratio {ratio}");
        // Within the crowd, equal intra-task tickets -> equal split.
        for &t in &crowd {
            let share = kernel.metrics().cpu_us(t) as f64 / crowd_cpu as f64;
            assert!((share - 0.2).abs() < 0.05, "member share {share}");
        }
        assert_eq!(one.members().len(), 1);
        assert_eq!(many.members().len(), 5);
        assert_eq!(one.name(), "one");
    }

    #[test]
    fn nested_tasks_compose() {
        // user -> project -> two tasks, Figure 3 style depth.
        let policy = LotteryPolicy::new(9);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let mut b = TaskBuilder::new(&mut kernel);
        let user = b.task("user", base, 900).unwrap();
        let mut proj_a = b.task("proj-a", user.currency(), 200).unwrap();
        let mut proj_b = b.task("proj-b", user.currency(), 100).unwrap();
        let ta = b.thread(&mut proj_a, "t", Box::new(ComputeBound), 10);
        let tb = b.thread(&mut proj_b, "t", Box::new(ComputeBound), 10);
        kernel.run_until(SimTime::from_secs(120));
        let ratio = kernel.metrics().cpu_ratio(ta, tb).unwrap();
        assert!((ratio - 2.0).abs() < 0.25, "{ratio}");
    }
}
