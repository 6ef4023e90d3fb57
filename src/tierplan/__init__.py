"""SLO-aware query planning and trace-driven simulation for multi-tier ML
pipelines: guided-sampling profiling, cost-aware multi-objective Bayesian
search, Pareto resource pruning, and greedy multi-query scheduling with
exhaustive oracles."""
