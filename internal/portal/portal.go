// Package portal implements the Web portal of the paper's prototype
// (Section V-A): a page where prospective participants can inspect an
// ongoing crowd-learning task — its objective, what sensory data and
// labels are collected, which learning algorithm runs, and how the privacy
// mechanisms work — together with timely, differentially private
// statistics (error rate, label distribution). The paper built this with
// Django and Matplotlib; this implementation uses html/template and
// text bars, keeping the repository stdlib-only.
package portal

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"sync"

	"github.com/crowdml/crowdml/internal/hub"
)

// TaskInfo describes the crowd-learning task to prospective participants —
// the transparency details the paper lists: objective, sensory data
// collected, labels collected, and learning algorithm used. It is the
// hub's task metadata type; tasks hosted on a hub carry it directly.
type TaskInfo = hub.TaskInfo

// historyPoint is one observed (iteration, error-estimate) pair.
type historyPoint struct {
	Iteration int     `json:"iteration"`
	Error     float64 `json:"error"`
}

// Portal serves the page of one task: a plain task or a sharded logical
// one — it renders a hub.Progress and cannot tell which.
type Portal struct {
	progress func() hub.Progress
	info     TaskInfo

	mu      sync.Mutex
	history []historyPoint
}

var _ http.Handler = (*Portal)(nil)

// maxHistory bounds the retained error-history points.
const maxHistory = 500

// New creates a portal rendering the given progress source (e.g.
// (*hub.Task).Progress) under the task description.
func New(progress func() hub.Progress, info TaskInfo) *Portal {
	return &Portal{progress: progress, info: info}
}

// ServeHTTP implements http.Handler: "/" renders the task page.
func (p *Portal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	data := p.snapshot()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTemplate.Execute(w, data); err != nil {
		// Headers already sent; nothing further to do.
		return
	}
}

// pageData is the template's view model.
type pageData struct {
	Info          TaskInfo
	TotalEps      float64
	PrivacyOff    bool
	Iteration     int
	Stopped       bool
	HasEstimates  bool
	ErrorEstimate float64
	Prior         []priorRow
	History       []historyPoint
	Sparkline     string
}

type priorRow struct {
	Label string
	Value float64
	Bar   string
}

// snapshot reads the task's current statistics, records a history point,
// and builds the view model.
func (p *Portal) snapshot() pageData {
	prog := p.progress()
	data := pageData{
		Info:      p.info,
		Iteration: prog.Iteration,
		Stopped:   prog.Stopped,
	}
	classes := len(p.info.Labels)
	if classes == 0 {
		classes = 1
	}
	total := p.info.Budget.Total(classes)
	data.TotalEps = float64(total)
	data.PrivacyOff = !total.Enabled()

	if prog.HasError {
		data.HasEstimates = true
		data.ErrorEstimate = prog.ErrorEstimate
		p.mu.Lock()
		if n := len(p.history); n == 0 || p.history[n-1].Iteration != data.Iteration {
			p.history = append(p.history, historyPoint{Iteration: data.Iteration, Error: prog.ErrorEstimate})
			if len(p.history) > maxHistory {
				p.history = p.history[len(p.history)-maxHistory:]
			}
		}
		data.History = append([]historyPoint(nil), p.history...)
		p.mu.Unlock()
		data.Sparkline = sparkline(data.History)
	}
	for k, v := range prog.PriorEstimate {
		label := fmt.Sprintf("class %d", k)
		if k < len(p.info.Labels) {
			label = p.info.Labels[k]
		}
		data.Prior = append(data.Prior, priorRow{Label: label, Value: v, Bar: bar(v)})
	}
	return data
}

// History returns a copy of the recorded error history.
func (p *Portal) History() []struct {
	Iteration int
	Error     float64
} {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]struct {
		Iteration int
		Error     float64
	}, len(p.history))
	for i, h := range p.history {
		out[i] = struct {
			Iteration int
			Error     float64
		}{h.Iteration, h.Error}
	}
	return out
}

// bar renders a 0..1 value as a 20-cell text bar. Values outside [0,1]
// (possible: sanitized counts can push estimates slightly negative) are
// clamped.
func bar(v float64) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	filled := int(v*20 + 0.5)
	return strings.Repeat("█", filled) + strings.Repeat("░", 20-filled)
}

// sparkline renders the error history as a compact block-character series.
func sparkline(points []historyPoint) string {
	if len(points) == 0 {
		return ""
	}
	const levels = "▁▂▃▄▅▆▇█"
	lo, hi := points[0].Error, points[0].Error
	for _, p := range points[1:] {
		if p.Error < lo {
			lo = p.Error
		}
		if p.Error > hi {
			hi = p.Error
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, p := range points {
		idx := 0
		if span > 0 {
			idx = int((p.Error - lo) / span * float64(len([]rune(levels))-1))
		}
		b.WriteRune([]rune(levels)[idx])
	}
	return b.String()
}

var pageTemplate = template.Must(template.New("portal").Parse(`<!DOCTYPE html>
<html>
<head><title>Crowd-ML: {{.Info.Name}}</title>
<style>
 body { font-family: sans-serif; max-width: 48rem; margin: 2rem auto; }
 .bar { font-family: monospace; }
 .muted { color: #666; }
 dt { font-weight: bold; margin-top: .6rem; }
</style>
</head>
<body>
<h1>{{.Info.Name}}</h1>
{{if .Stopped}}<p><strong>This task has completed.</strong></p>{{end}}

<h2>About this task</h2>
<dl>
 <dt>Objective</dt><dd>{{.Info.Objective}}</dd>
 <dt>Sensory data collected</dt><dd>{{.Info.SensorData}}</dd>
 <dt>Labels collected</dt><dd>{{range $i, $l := .Info.Labels}}{{if $i}}, {{end}}{{$l}}{{end}}</dd>
 <dt>Learning algorithm</dt><dd>{{.Info.Algorithm}}</dd>
</dl>

<h2>Your privacy</h2>
{{if .PrivacyOff}}
<p class="muted">This task runs without differential privacy (ε⁻¹ = 0).</p>
{{else}}
<p>Everything your device sends is sanitized <em>on the device</em> before
transmission: gradients receive Laplace noise and progress counters receive
discrete Laplace noise. Each contribution is
<strong>ε = {{printf "%.3g" .TotalEps}}</strong> differentially private —
even an adversary observing all network traffic learns almost nothing about
any single sample of yours.</p>
{{end}}

<h2>Live statistics (differentially private)</h2>
<p>Server iteration: {{.Iteration}}</p>
{{if .HasEstimates}}
<p>Current error estimate: {{printf "%.3f" .ErrorEstimate}}</p>
<p class="bar">error history: {{.Sparkline}}</p>
<h3>Label distribution</h3>
<table>
{{range .Prior}}<tr><td>{{.Label}}</td><td class="bar">{{.Bar}}</td><td>{{printf "%.2f" .Value}}</td></tr>
{{end}}</table>
{{else}}
<p class="muted">No contributions received yet.</p>
{{end}}
</body>
</html>
`))
