// crowdbench is a module of its own so that the repository's build and
// tests do not include it; it imports the repository's packages through
// the replace below (an import path under github.com/crowdml/crowdml may
// use that module's internal packages).
module github.com/crowdml/crowdml/benchmark

go 1.23.0

require github.com/crowdml/crowdml v0.0.0

replace github.com/crowdml/crowdml => ../
