"""The operator dashboard: one self-contained HTML page.

``GET /dashboard`` serves :data:`DASHBOARD_HTML` — a single page with
inline CSS and JS and **zero external assets** (no CDN fonts, no
frameworks), so it works on an air-gapped box exactly like the rest of
the stdlib-only service. Everything it shows comes from polling the
existing JSON API:

* ``/healthz``             — the header strip (version, workers, backlog,
  uptime);
* ``/campaigns``           — the campaign table;
* ``/campaigns/<id>``      — live per-unit progress for the selected one;
* ``/runs/<id>/report``    — the per-domain gap heatmap (subspace region
  boxes over the first two input dimensions, colored by mean gap);
* ``/runs/<id>/search``    — search-trace playback (a round slider over
  the recorded :class:`~repro.search.trace.SearchTrace`: frontier /
  refined / pruned cell counts and ledger spend per round).

The page is pure observation: it only ever issues GETs.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>xplain operator dashboard</title>
<style>
  :root { --bg:#0f1419; --panel:#171c24; --line:#2a3240; --fg:#d7dde5;
          --dim:#8a94a3; --accent:#4ea1ff; --ok:#3fb950; --bad:#f85149;
          --warn:#d29922; }
  * { box-sizing: border-box; }
  body { margin:0; background:var(--bg); color:var(--fg);
         font:13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace; }
  header { display:flex; gap:1.5em; align-items:baseline;
           padding:10px 16px; border-bottom:1px solid var(--line); }
  header h1 { font-size:15px; margin:0; color:var(--accent); }
  header .kv span { color:var(--dim); }
  main { display:grid; grid-template-columns: 1fr 1fr;
         gap:12px; padding:12px 16px; }
  section { background:var(--panel); border:1px solid var(--line);
            border-radius:6px; padding:10px 12px; min-height:120px; }
  section h2 { margin:0 0 8px; font-size:12px; text-transform:uppercase;
               letter-spacing:.08em; color:var(--dim); }
  table { width:100%; border-collapse:collapse; }
  th, td { text-align:left; padding:2px 8px 2px 0; white-space:nowrap; }
  th { color:var(--dim); font-weight:normal; }
  tr.sel td { color:var(--accent); }
  tr.click { cursor:pointer; }
  .bar { display:inline-block; width:120px; height:8px;
         background:var(--line); border-radius:4px; overflow:hidden;
         vertical-align:middle; }
  .bar i { display:block; height:100%; background:var(--ok); }
  .status-done { color:var(--ok); }  .status-failed { color:var(--bad); }
  .status-running, .status-pending { color:var(--warn); }
  canvas { background:#0a0e13; border:1px solid var(--line);
           border-radius:4px; width:100%; }
  input[type=range] { width:100%; }
  .note { color:var(--dim); }
  .legend span { margin-right:1em; }
  .swatch { display:inline-block; width:10px; height:10px;
            border-radius:2px; margin-right:4px; vertical-align:middle; }
</style>
</head>
<body>
<header>
  <h1>xplain</h1>
  <div class="kv" id="health">loading&hellip;</div>
  <a href="/metrics" style="margin-left:auto;color:var(--dim)">/metrics</a>
</header>
<main>
  <section style="grid-column: span 2">
    <h2>Campaigns</h2>
    <div id="campaigns" class="note">loading&hellip;</div>
  </section>
  <section>
    <h2>Units <span id="unit-campaign" class="note"></span></h2>
    <div id="units" class="note">select a campaign</div>
  </section>
  <section>
    <h2>Gap heatmap <span id="heatmap-run" class="note"></span></h2>
    <canvas id="heatmap" width="520" height="280"></canvas>
    <div id="heatmap-info" class="note">select a unit</div>
  </section>
  <section>
    <h2>Search playback <span id="trace-run" class="note"></span></h2>
    <input type="range" id="round" min="0" max="0" value="0" disabled>
    <div id="round-info" class="note">select a unit</div>
    <canvas id="cells" width="520" height="120"></canvas>
    <div class="legend note">
      <span><i class="swatch" style="background:#4ea1ff"></i>frontier</span>
      <span><i class="swatch" style="background:#444c5a"></i>pruned</span>
      <span><i class="swatch" style="background:#3fb950"></i>refined</span>
    </div>
  </section>
</main>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
const state = { campaign: null, run: null, trace: null, report: null };

async function fetchJSON(path) {
  const res = await fetch(path);
  if (!res.ok) throw Object.assign(new Error(path), { status: res.status });
  return res.json();
}
const esc = (s) => String(s).replace(/[&<>"]/g,
  (c) => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));

// ---- header ---------------------------------------------------------------
async function refreshHealth() {
  try {
    const h = await fetchJSON("/healthz");
    $("health").innerHTML =
      `<span>v</span>${esc(h.version)} &nbsp; ` +
      `<span>workers</span> ${esc(h.workers)} &nbsp; ` +
      `<span>backlog</span> ${esc(h.backlog)} &nbsp; ` +
      `<span>uptime</span> ${Math.round(h.uptime_seconds)}s &nbsp; ` +
      `<span>store</span> ${esc(h.store)} &nbsp; ` +
      `<span>worker</span> ${h.worker_alive ? "alive" : "down"}`;
  } catch (e) { $("health").textContent = "healthz unreachable"; }
}

// ---- campaigns ------------------------------------------------------------
async function refreshCampaigns() {
  try {
    const data = await fetchJSON("/campaigns");
    if (!data.campaigns.length) {
      $("campaigns").textContent = "no campaigns yet"; return;
    }
    const rows = data.campaigns.map((c) => {
      const sel = c.campaign_id === state.campaign ? " sel" : "";
      return `<tr class="click${sel}" data-id="${esc(c.campaign_id)}">` +
        `<td>${esc(c.name)}</td>` +
        `<td class="status-${esc(c.status)}">${esc(c.status)}</td>` +
        `<td>${c.num_runs} units</td>` +
        `<td class="note">${esc(c.campaign_id)}</td></tr>`;
    }).join("");
    $("campaigns").innerHTML =
      `<table><tr><th>name</th><th>status</th><th>units</th>` +
      `<th>id</th></tr>${rows}</table>`;
    for (const tr of $("campaigns").querySelectorAll("tr.click")) {
      tr.onclick = () => { state.campaign = tr.dataset.id; refreshUnits(); };
    }
    if (!state.campaign && data.campaigns.length) {
      state.campaign = data.campaigns[data.campaigns.length - 1].campaign_id;
      refreshUnits();
    }
  } catch (e) { $("campaigns").textContent = "campaigns unreachable"; }
}

// ---- per-unit progress ----------------------------------------------------
async function refreshUnits() {
  if (!state.campaign) return;
  try {
    const c = await fetchJSON(`/campaigns/${state.campaign}`);
    $("unit-campaign").textContent = c.name;
    const pct = Math.round((c.progress || 0) * 100);
    const rows = c.runs.map((r) => {
      const sel = r.run_id === state.run ? " sel" : "";
      return `<tr class="click${sel}" data-id="${esc(r.run_id)}">` +
        `<td>${esc(r.job_name)}</td>` +
        `<td class="status-${esc(r.status)}">${esc(r.status)}</td>` +
        `<td class="note">${esc(r.run_id.slice(0, 12))}</td></tr>`;
    }).join("");
    $("units").innerHTML =
      `<div>${c.units_done}/${c.units_total} done ` +
      `<span class="bar"><i style="width:${pct}%"></i></span> ${pct}%</div>` +
      `<table>${rows}</table>`;
    for (const tr of $("units").querySelectorAll("tr.click")) {
      tr.onclick = () => { selectRun(tr.dataset.id); };
    }
  } catch (e) { $("units").textContent = "campaign unreachable"; }
}

async function selectRun(runId) {
  state.run = runId;
  refreshUnits();
  $("heatmap-run").textContent = runId.slice(0, 12);
  $("trace-run").textContent = runId.slice(0, 12);
  try {
    state.report = await fetchJSON(`/runs/${runId}/report`);
    drawHeatmap(state.report);
  } catch (e) {
    state.report = null;
    $("heatmap-info").textContent = "no completed report yet";
  }
  try {
    const s = await fetchJSON(`/runs/${runId}/search`);
    state.trace = s.search && s.search.trace;
    initPlayback();
  } catch (e) { state.trace = null; initPlayback(); }
}

// ---- gap heatmap ----------------------------------------------------------
function drawHeatmap(report) {
  const canvas = $("heatmap"), ctx = canvas.getContext("2d");
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const subspaces = report.subspaces || [];
  const names = report.input_names || [];
  if (!subspaces.length) {
    $("heatmap-info").textContent =
      `no significant subspaces (worst gap ${report.worst_gap.toFixed(4)})`;
    return;
  }
  // Bounds: the union of region boxes on the first two dims, padded.
  let x0 = Infinity, x1 = -Infinity, y0 = Infinity, y1 = -Infinity;
  const boxes = subspaces.map((s) => s.region.box);
  const dim = boxes[0].lo.length;
  for (const b of boxes) {
    x0 = Math.min(x0, b.lo[0]); x1 = Math.max(x1, b.hi[0]);
    y0 = Math.min(y0, dim > 1 ? b.lo[1] : 0);
    y1 = Math.max(y1, dim > 1 ? b.hi[1] : 1);
  }
  const padX = (x1 - x0 || 1) * 0.08, padY = (y1 - y0 || 1) * 0.08;
  x0 -= padX; x1 += padX; y0 -= padY; y1 += padY;
  const sx = (v) => (v - x0) / (x1 - x0) * canvas.width;
  const sy = (v) => canvas.height - (v - y0) / (y1 - y0) * canvas.height;
  const maxGap = Math.max(...subspaces.map((s) => s.mean_gap_inside), 1e-12);
  subspaces.forEach((s, i) => {
    const b = s.region.box;
    const heat = s.mean_gap_inside / maxGap;     // 0..1
    const hue = 210 - 170 * heat;                // blue -> red
    ctx.fillStyle = `hsla(${hue}, 85%, 55%, 0.45)`;
    ctx.strokeStyle = `hsl(${hue}, 85%, 65%)`;
    const px = sx(b.lo[0]), py = sy(dim > 1 ? b.hi[1] : 1);
    const w = Math.max(sx(b.hi[0]) - px, 2);
    const h = Math.max(sy(dim > 1 ? b.lo[1] : 0) - py, 2);
    ctx.fillRect(px, py, w, h);
    ctx.strokeRect(px, py, w, h);
    ctx.fillStyle = "#d7dde5";
    ctx.fillText(`#${i} ${s.mean_gap_inside.toFixed(3)}`, px + 3, py + 12);
  });
  const axes = dim > 1 ? `${names[0] || "x0"} × ${names[1] || "x1"}`
                       : (names[0] || "x0");
  $("heatmap-info").textContent =
    `${subspaces.length} subspace(s) over ${axes}; ` +
    `worst gap ${report.worst_gap.toFixed(4)}`;
}

// ---- search-trace playback ------------------------------------------------
function initPlayback() {
  const slider = $("round");
  if (!state.trace || !(state.trace.rounds || []).length) {
    slider.disabled = true; slider.max = 0;
    $("round-info").textContent = state.trace === null
      ? "no search block for this unit"
      : "no recorded rounds (uniform policy traces have none)";
    const ctx = $("cells").getContext("2d");
    ctx.clearRect(0, 0, $("cells").width, $("cells").height);
    return;
  }
  slider.disabled = false;
  slider.max = state.trace.rounds.length - 1;
  slider.value = slider.max;
  slider.oninput = () => drawRound(Number(slider.value));
  drawRound(Number(slider.value));
}

function drawRound(i) {
  const trace = state.trace, round = trace.rounds[i];
  const scores = round.scores || [];
  const by = { frontier: 0, pruned: 0, split: 0 };
  for (const s of scores) by[s.status] = (by[s.status] || 0) + 1;
  const refined = by.split || 0;
  const budget = trace.budget || round.spent_after || 1;
  $("round-info").innerHTML =
    `round ${round.index} (${esc(round.stage)}) &mdash; ` +
    `${by.frontier || 0} frontier, ${refined} refined, ` +
    `${by.pruned || 0} pruned &mdash; best gap ` +
    `${round.best_gap.toFixed(4)} &mdash; ledger ${round.spent_after}` +
    `/${budget}` +
    (round.scores_truncated ? " (cell list truncated)" : "");
  const canvas = $("cells"), ctx = canvas.getContext("2d");
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  const n = scores.length || 1;
  const w = Math.max(Math.floor(canvas.width / n) - 2, 3);
  const maxScore = Math.max(...scores.map((s) =>
    Math.min(s.score, 1e6)), 1e-12);
  scores.forEach((s, j) => {
    const hgt = Math.max(
      (Math.min(s.score, 1e6) / maxScore) * (canvas.height - 14), 2);
    ctx.fillStyle = s.status === "pruned" ? "#444c5a"
      : s.status === "split" ? "#3fb950" : "#4ea1ff";
    ctx.fillRect(j * (w + 2), canvas.height - hgt, w, hgt);
  });
}

// ---- poll loop ------------------------------------------------------------
function tick() {
  refreshHealth(); refreshCampaigns();
  if (state.campaign) refreshUnits();
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"""
