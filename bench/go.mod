// The benchmark is a module of its own so that it builds from bench/ alone
// plus the repository it measures: its import path sits under repro/, which
// is what lets it import repro/internal/..., and the replace points at the
// checkout it lives in.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
