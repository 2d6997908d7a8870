package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
)

// handleMetrics renders the /statz snapshot in the Prometheus text
// exposition format (version 0.0.4), so the daemon plugs into a standard
// scrape config with no client library. The series are the Statz fields
// that carry a metric tag, in declaration order (see writeMetrics).
// Per-dataset series carry a dataset label; datasets are sorted by name
// and label values are escaped per the format's rules, so output for a
// fixed registry state is deterministic (golden-tested). Series named
// *_total are counters; the rest are gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	writeMetrics(&b, reflect.ValueOf(s.statzBody()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// writeMetrics renders the struct v: a field with a metric tag is one
// series (its help tag is the HELP line), a struct field contributes its
// own fields, a nil pointer nothing, and a slice of structs one labelled
// series per tagged element field (writeLabelled).
func writeMetrics(b *strings.Builder, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case f.Tag.Get("metric") != "":
			writeHeader(b, f)
			fmt.Fprintf(b, "%s %s\n", f.Tag.Get("metric"), formatMetric(fv))
		case fv.Kind() == reflect.Struct:
			writeMetrics(b, fv)
		case fv.Kind() == reflect.Pointer && !fv.IsNil():
			writeMetrics(b, fv.Elem())
		case fv.Kind() == reflect.Slice && fv.Type().Elem().Kind() == reflect.Struct:
			writeLabelled(b, fv)
		}
	}
}

// writeLabelled renders a slice of records: for each metric-tagged field
// of the element type (embedded structs included), one series with one
// sample per element, labelled by the element's label-tagged field.
func writeLabelled(b *strings.Builder, rows reflect.Value) {
	fields := reflect.VisibleFields(rows.Type().Elem())
	var label reflect.StructField
	for _, f := range fields {
		if f.Tag.Get("label") != "" {
			label = f
		}
	}
	for _, f := range fields {
		name := f.Tag.Get("metric")
		if name == "" {
			continue
		}
		writeHeader(b, f)
		for i := 0; i < rows.Len(); i++ {
			row := rows.Index(i)
			fmt.Fprintf(b, "%s{%s=\"%s\"} %s\n", name, label.Tag.Get("label"),
				labelEscaper.Replace(row.FieldByIndex(label.Index).String()),
				formatMetric(row.FieldByIndex(f.Index)))
		}
	}
}

// labelEscaper escapes a label value with the only three escapes the text
// format defines; every other byte, UTF-8 included, stands for itself.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func writeHeader(b *strings.Builder, f reflect.StructField) {
	name := f.Tag.Get("metric")
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, f.Tag.Get("help"), name, metricType(name))
}

// metricType returns the exposition type of a series: the format reserves
// the _total suffix for counters.
func metricType(name string) string {
	if strings.HasSuffix(name, "_total") {
		return "counter"
	}
	return "gauge"
}

// formatMetric renders an integer or float sample the way Prometheus
// expects: integral values without an exponent, everything else in Go's
// shortest form.
func formatMetric(v reflect.Value) string {
	if v.CanInt() {
		return strconv.FormatInt(v.Int(), 10)
	}
	f := v.Float()
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
