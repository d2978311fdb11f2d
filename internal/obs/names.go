package obs

// Canonical metric names. Every component registers under these
// constants so the exposition surfaces (Prometheus text, JSON snapshot,
// the serve "metrics" verb) and the summary-line helpers agree on the
// spelling; DESIGN.md's "Observability" section documents each one.
const (
	// Detection engine (internal/detect). Counted on real (uncached)
	// scans only; cache hits are accounted by the cache counters.
	MetricScans        = "patchitpy_scans_total"             // counter: uncached scans
	MetricScanFindings = "patchitpy_scan_findings_total"     // counter: findings from uncached scans
	MetricScanDuration = "patchitpy_scan_duration_seconds"   // histogram: whole-scan latency
	MetricRuleRuns     = "patchitpy_rule_runs_total"         // counter{rule}: regex-phase executions
	MetricRuleFindings = "patchitpy_rule_findings_total"     // counter{rule}: findings per rule
	MetricRuleTime     = "patchitpy_rule_time_seconds_total" // counter{rule}: cumulative regex-phase time
	MetricRuleDuration = "patchitpy_rule_duration_seconds"   // histogram: per-rule-run latency, all rules

	// Incremental re-scanning (internal/detect, RescanEdited).
	MetricIncRescans       = "patchitpy_incremental_rescans_total"        // counter: incremental rescans (replay path)
	MetricIncFullRescans   = "patchitpy_incremental_full_rescans_total"   // counter: rescans that fell back to a full scan
	MetricIncMaskFallbacks = "patchitpy_incremental_mask_fallbacks_total" // counter: rescans that retokenized (tier 2 or 3)
	MetricIncDirtyBytes    = "patchitpy_incremental_dirty_bytes"          // histogram: merged dirty-window size
	MetricIncRulesRerun    = "patchitpy_incremental_rules_rerun_total"    // counter: rules whose regexes re-ran
	MetricIncRulesReplayed = "patchitpy_incremental_rules_replayed_total" // counter: rules that replayed findings
	MetricIncRescanTime    = "patchitpy_incremental_rescan_seconds"       // histogram: rescan latency (incl. fallbacks)

	// Buffer sessions (internal/docsession).
	MetricSessionsOpen    = "patchitpy_sessions_open"          // gauge fn: live sessions
	MetricSessionsOpened  = "patchitpy_sessions_opened_total"  // counter: open verbs
	MetricSessionsClosed  = "patchitpy_sessions_closed_total"  // counter: close verbs
	MetricSessionsEvicted = "patchitpy_sessions_evicted_total" // counter: LRU evictions at capacity
	MetricSessionEdits    = "patchitpy_session_edits_total"    // counter: edits applied across sessions

	// Literal-prefilter accounting (cumulative, from detect.ScanStats).
	MetricPrefilterConsidered = "patchitpy_prefilter_rules_considered_total" // counter fn
	MetricPrefilterSkipped    = "patchitpy_prefilter_rules_skipped_total"    // counter fn
	MetricPrefilterSkipRate   = "patchitpy_prefilter_skip_rate"              // gauge fn: skipped/considered

	// Result caches (internal/resultcache), labeled cache="scan" (the
	// detector's scan cache) or cache="http" (serve's response cache).
	MetricCacheHits      = "patchitpy_cache_hits_total"      // counter fn{cache}
	MetricCacheMisses    = "patchitpy_cache_misses_total"    // counter fn{cache}
	MetricCacheEvictions = "patchitpy_cache_evictions_total" // counter fn{cache}
	MetricCacheHitRate   = "patchitpy_cache_hit_rate"        // gauge fn{cache}: hits/(hits+misses)
	MetricCacheEntries   = "patchitpy_cache_entries"         // gauge fn{cache}
	MetricCacheBytes     = "patchitpy_cache_bytes"           // gauge fn{cache}: retained cost

	// Worker pool (internal/workpool), recorded when the Run context
	// carries an enabled registry.
	MetricPoolBatches = "patchitpy_workpool_batches_total"  // counter: Run invocations
	MetricPoolJobs    = "patchitpy_workpool_jobs_total"     // counter: completed jobs
	MetricPoolActive  = "patchitpy_workpool_active_workers" // gauge: workers inside fn
	MetricPoolWorkers = "patchitpy_workpool_workers"        // gauge: pool size of the latest batch
	MetricPoolPending = "patchitpy_workpool_jobs_pending"   // gauge: unclaimed jobs of the latest batch

	// Registry-driven analyzer harness (experiments, CLI detect).
	MetricAnalyzerRuns     = "patchitpy_analyzer_runs_total"       // counter{tool}
	MetricAnalyzerDuration = "patchitpy_analyzer_duration_seconds" // histogram{tool}

	// Taint analysis (internal/taint via the detect precision filter and
	// the taintflow analyzer).
	MetricTaintAnalyses   = "patchitpy_taint_analyses_total"     // counter: taint analyses computed (cache misses)
	MetricTaintSuppressed = "patchitpy_taint_suppressions_total" // counter: findings demoted by the precision filter
	MetricTaintTraces     = "patchitpy_taint_traces_total"       // counter: source->sink traces reported by taintflow
	MetricTaintDuration   = "patchitpy_taint_analysis_seconds"   // histogram: per-source taint analysis latency

	// Catalog vetting (internal/rulecheck via `patchitpy vet`).
	MetricVetRuns     = "patchitpy_vet_runs_total"           // counter: vet invocations
	MetricVetDuration = "patchitpy_vet_duration_seconds"     // histogram: whole-vet latency
	MetricVetIssues   = "patchitpy_vet_issues_total"         // counter{severity}: issues by severity
	MetricVetChecks   = "patchitpy_vet_check_findings_total" // counter{check}: issues by check slug

	// Serve session protocol (internal/core).
	MetricServeRequests = "patchitpy_serve_requests_total"           // counter{cmd}
	MetricServeDuration = "patchitpy_serve_request_duration_seconds" // histogram{cmd}
	MetricUptime        = "patchitpy_uptime_seconds"                 // gauge fn: process uptime

	// HTTP front end (internal/serve). The verb-level work is accounted by
	// the serve metrics above (both front ends go through core.Handle);
	// these cover the transport: admission, queueing and shedding.
	MetricHTTPRequests   = "patchitpy_http_requests_total"           // counter{verb}: requests admitted to a handler
	MetricHTTPResponses  = "patchitpy_http_responses_total"          // counter{code}: responses by HTTP status
	MetricHTTPDuration   = "patchitpy_http_request_duration_seconds" // histogram{verb}: admission-to-response latency
	MetricHTTPInFlight   = "patchitpy_http_in_flight"                // gauge: requests between admission and response
	MetricHTTPQueueDepth = "patchitpy_http_queue_depth"              // gauge fn: jobs waiting for a worker
	MetricHTTPQueueCap   = "patchitpy_http_queue_capacity"           // gauge fn: bounded queue size
	MetricHTTPShed       = "patchitpy_http_shed_total"               // counter: requests refused with 429
	MetricHTTPTimeouts   = "patchitpy_http_timeouts_total"           // counter: deadline expiries (queued or running)
	MetricHTTPQueueWait  = "patchitpy_http_queue_wait_seconds"       // histogram: submit-to-dispatch wait in the bounded queue

	// Structured logging (internal/obs log layer).
	MetricLogRecords = "patchitpy_log_records_total" // counter{level}: records emitted
	MetricLogDropped = "patchitpy_log_dropped_total" // counter: records suppressed by the sampler
)
