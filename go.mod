module repro

go 1.23

// No external requirements by design: the build must stay hermetic (offline
// module cache). In particular cmd/askcheck's analyzers run on a small
// stdlib-only go/analysis-shaped framework (internal/analysis/framework)
// instead of pinning golang.org/x/tools; if the toolchain image ever bakes
// in x/tools, the analyzers port by swapping imports — the Analyzer/Pass
// API shapes match.
