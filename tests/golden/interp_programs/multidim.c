/* Multi-dimensional arrays, also inside structs. */
double grid[6][5];
int cnt[3][4][2];
struct cell { int a; double b[2][3]; };
struct cell cells[2][3];
void worker(int pid)
{
    int i; int j;
    for (i = pid; i < 6; i = i + nprocs()) {
        for (j = 0; j < 5; j++) { grid[i][j] = grid[i][j] + i * j; }
    }
    cnt[pid % 3][pid % 4][1] += 1;
    cells[pid % 2][pid % 3].b[1][pid % 3] += 1.25;
    cells[pid % 2][pid % 3].a += 1;
}
int main()
{
    int p; double s;
    for (p = 0; p < nprocs(); p++) { create(worker, p); }
    wait_for_end();
    s = grid[5][4] + grid[2][3] + cnt[1][1][1] + cells[1][1].b[1][1] + cells[0][0].a;
    print(s);
    return 0;
}
