package main

import (
	"log/slog"
	"net/http"
	"time"

	"edbp/internal/span"
)

// statusWriter captures the response status for the access log; Unwrap
// keeps http.ResponseController working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withObservability wraps the mux with the service-wide request
// instrumentation: the request counter, a server span per request
// (minted fresh or continued from an incoming traceparent header, and
// echoed back on the response), and the access log. Every 5xx response
// — whichever handler produced it — emits exactly one structured error
// line carrying the trace ID, so a failing request is always
// correlatable across the fleet; healthy requests log at debug.
func (s *server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.met != nil {
			s.met.requests.Inc()
		}
		active, _ := span.ParseTraceparent(r.Header.Get(span.Header))
		sp := s.spans.Start(active, r.Method+" "+r.URL.Path)
		if sp != nil {
			sp.Attr("method", r.Method).Attr("path", r.URL.Path)
			active = sp.Ctx()
			w.Header().Set(span.Header, active.Traceparent())
			r = r.WithContext(span.With(r.Context(), active))
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if sp != nil {
			sp.Attr("status", httpStatusString(status))
			sp.End()
		}
		traceID := ""
		if !active.Trace.IsZero() {
			traceID = active.Trace.String()
		}
		if status >= 500 {
			s.log.Error("request failed",
				"method", r.Method, "path", r.URL.Path, "status", status,
				"trace_id", traceID, "dur", time.Since(start).Round(time.Microsecond))
			return
		}
		if s.log.Enabled(r.Context(), slog.LevelDebug) {
			s.log.Debug("request",
				"method", r.Method, "path", r.URL.Path, "status", status,
				"trace_id", traceID, "dur", time.Since(start).Round(time.Microsecond))
		}
	})
}

// httpStatusString formats small status codes without strconv garbage
// on the common path.
func httpStatusString(code int) string {
	switch code {
	case 200:
		return "200"
	case 202:
		return "202"
	case 400:
		return "400"
	case 404:
		return "404"
	case 503:
		return "503"
	}
	b := [3]byte{byte('0' + code/100%10), byte('0' + code/10%10), byte('0' + code%10)}
	return string(b[:])
}
