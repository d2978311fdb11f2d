package obs

import "io"

// OpenMetricsContentType is the content type for the OpenMetrics 1.0
// text exposition written by WriteOpenMetrics.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// PrometheusContentType is the content type for the Prometheus 0.0.4
// text exposition written by WritePrometheus.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteOpenMetrics writes the registry in the OpenMetrics 1.0 text
// exposition format: like WritePrometheus but with counter families
// named without the _total suffix in their TYPE line, trace-ID
// exemplars attached to histogram buckets, and a terminal # EOF. This
// is the dialect Prometheus scrapes when exemplar storage is on, which
// is what links a latency bucket on a dashboard back to a retained
// trace.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}
