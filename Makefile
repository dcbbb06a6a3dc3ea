PYTHON ?= python
PYTHONPATH := src

.PHONY: test faults chaos cluster-chaos ingest-chaos overload-chaos gateway-chaos bench quicktest telemetry-test slo-test trace-test profile-test monitor-demo overload-demo gateway-demo profile-demo bench-smoke

test:            ## full tier-1 suite (RuntimeWarnings are errors; chaos excluded)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

faults:          ## fault-injection recovery suite only
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m faults

chaos:           ## serving chaos suite (fault schedules, breakers, hot-swap)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m chaos

cluster-chaos:   ## sharded-cluster chaos suite (replica crashes, shard loss, slow shards)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m cluster

quicktest:       ## everything except the fault harness
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m "not faults"

telemetry-test:  ## telemetry layer tests, incl. the chaos-marked ones
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m obs

slo-test:        ## quality-SLO chaos suite (probes, drift, burn-rate alerts, flight recorder)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m slo

trace-test:      ## whole-path tracing suite (also part of tier-1)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m trace

profile-test:    ## real-clock profiler/memory-ledger suite (live sampler threads)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m profile

ingest-chaos:    ## streaming-ingest chaos suite (torn writes, disk-full, crash-mid-compaction, racing queries)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m ingest

overload-chaos:  ## real-time overload chaos suite (storms, floods, brownout ladder, fairness)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m overload

gateway-chaos:   ## real-socket gateway chaos suite (slowloris, floods, drain under load, stale cache)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m gateway

monitor-demo:    ## run the quality-observability incident demo and render it
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/quality_monitor_demo.py

overload-demo:   ## run the 10x-storm brownout/recovery demo
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/overload_demo.py

gateway-demo:    ## run the HTTP gateway drain-under-load demo
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/gateway_demo.py

profile-demo:    ## run the alert-triggered profile-capture demo
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/profiler_demo.py

bench:           ## regenerate all paper tables/figures
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:     ## every perfbench workload for 2 s, untraced and traced; fails unless each run exits 0 and ends "correct": true
	@for w in scan-50k fanout-write-20k wire-model-2k; do \
	  for t in 0 1; do \
	    echo "bench-smoke: $$w --trace $$t"; \
	    out=$$($(PYTHON) perfbench/run.py --workload $$w --seed 1 \
	      --seconds 2 --trace $$t) \
	      || { echo "$$out"; echo "bench-smoke: $$w --trace $$t exited non-zero"; exit 1; }; \
	    echo "$$out" | tail -n 1; \
	    echo "$$out" | tail -n 1 | grep -q '"correct": true' \
	      || { echo "bench-smoke: $$w --trace $$t is not correct"; exit 1; }; \
	  done; \
	done
