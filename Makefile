.PHONY: all build test fmt ci bench report clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# full CI gate: build + tests + fmt (if ocamlformat is installed) + a
# JSON-validated experiments smoke run
ci:
	sh bench/ci.sh

bench:
	dune exec bin/experiments.exe -- --all

# end-to-end observability demo: run one experiment with a persistent
# profile (check-site hits + VM coverage), then render the offline
# report — hottest checks, per-function coverage, never-executed sites
report:
	dune exec bin/experiments.exe -- --benchmark 470lbm \
		--profile-out /tmp/mi-report-demo.json hotchecks
	dune exec bin/mireport.exe -- report /tmp/mi-report-demo.json --top 10

clean:
	dune clean
